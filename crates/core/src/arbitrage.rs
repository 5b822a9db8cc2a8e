//! Arbitrage checking: verifying — or breaking — pricing functions.
//!
//! Definition 3 (k-arbitrage): a buyer purchases `k` cheap noisy instances
//! at NCPs `δ₁..δ_k` and combines them (unbiasedly) into an instance at
//! least as accurate as a target `δ₀`, while paying less. For the Gaussian
//! mechanism, the optimal combination is inverse-variance weighting with
//! combined precision `1/δ = Σ 1/δᵢ` (precisions add), so a listing is
//! arbitrage-free iff `p̄(x) = p(1/x)` is monotone non-decreasing and
//! subadditive (Theorems 5/6).
//!
//! * [`check`] — decides that exactly for the curve that is sold: the
//!   piecewise-linear `p̄` with its origin ray and constant tail. It takes
//!   no grid, resolution or tolerance; a failure comes with a witness (a
//!   falling pair, or two precisions whose combination undercuts the list
//!   price of their sum). [`Broker::publish`](crate::market::Broker::publish)
//!   runs it on every curve before listing it.
//! * [`combine_inverse_variance`] — executes the attack on actual model
//!   instances, reproducing the estimator `ĥ = Σ (δ₀/δᵢ)·ĥᵢ` from the
//!   proof of Theorem 5. Tests use it to demonstrate that broken prices
//!   lose real money.
//!
//! Why pairs of vertices suffice: on `x, y ≥ 0` the gap
//! `g(x, y) = p̄(x) + p̄(y) − p̄(x + y)` is linear on every cell of the
//! arrangement of the lines `x = kᵢ`, `y = kⱼ` and `x + y = kₗ` (the knots
//! `k`), so its minimum over `[0, kₙ]²` sits at a vertex `(kᵢ, kⱼ)` or
//! `(kᵢ, kₗ − kᵢ)` (up to the symmetry `g(x, y) = g(y, x)`); outside that
//! square `g = p̄(y) ≥ 0` or `g = p̄(x) ≥ 0`. A cheap `k`-bundle implies a
//! cheap pair: if `p̄(x₁ + … + x_k) > Σ p̄(xᵢ)`, then some prefix sum
//! `s = x₁ + … + x_{m−1}` has `p̄(s + x_m) > p̄(s) + p̄(x_m)` (otherwise the
//! inequalities chain to subadditivity of the whole sum).

use crate::pricing::PricingFunction;
use mbp_linalg::Vector;
use mbp_optim::isotonic::relaxed_cone_residual;
use std::fmt;

/// Relative margin an exploit must beat to count, in [`exceeds`]: prices
/// that differ by last-ulp interpolation noise are equal. The publish
/// check and the attack engine's default share it.
pub const TOL: f64 = 1e-9;

/// `lhs > rhs` by more than `tol` relative to the price scale
/// (`max(|lhs|, |rhs|, 1)`), so rounding never reports a violation.
pub fn exceeds(lhs: f64, rhs: f64, tol: f64) -> bool {
    lhs > rhs + tol * lhs.abs().max(rhs.abs()).max(1.0)
}

/// A witness that a pricing curve is not arbitrage-free, priced on the
/// curve as sold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arbitrage {
    /// `lo < hi` but the lower precision costs more (Definition 2).
    Falling {
        /// Lower precision.
        lo: f64,
        /// Higher precision.
        hi: f64,
        /// `p̄(lo)`.
        p_lo: f64,
        /// `p̄(hi)`.
        p_hi: f64,
    },
    /// Buying precisions `x` and `y` and combining them costs less than
    /// the list price of `x + y` (Definition 3 with `k = 2`).
    Superadditive {
        /// Smaller part.
        x: f64,
        /// Larger part.
        y: f64,
        /// `p̄(x) + p̄(y)`: what the attacker pays.
        parts_price: f64,
        /// `p̄(x + y)`: the list price of the combination.
        whole_price: f64,
    },
}

impl Arbitrage {
    /// The attacker's saving over honest purchasing (> 0).
    pub fn margin(&self) -> f64 {
        match *self {
            Arbitrage::Falling { p_lo, p_hi, .. } => p_lo - p_hi,
            Arbitrage::Superadditive {
                parts_price,
                whole_price,
                ..
            } => whole_price - parts_price,
        }
    }
}

impl fmt::Display for Arbitrage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Arbitrage::Falling { lo, hi, p_lo, p_hi } => write!(
                f,
                "falling: p({lo}) = {p_lo} > p({hi}) = {p_hi} (margin {})",
                self.margin()
            ),
            Arbitrage::Superadditive {
                x,
                y,
                parts_price,
                whole_price,
            } => write!(
                f,
                "superadditive: precisions {x} + {y} cost {parts_price} < p({}) = {whole_price} (margin {})",
                x + y,
                self.margin()
            ),
        }
    }
}

/// Checks that the curve `f` sells is monotone non-decreasing and
/// subadditive (Theorems 5/6), up to the rounding margin [`TOL`].
///
/// Every price is `f.price_at`, the broker's own arithmetic. Three passes:
///
/// 1. *Falling pairs, O(n):* `p̄` is linear between knots, rises on the
///    origin ray and is flat on the tail, so it falls somewhere iff some
///    knot is priced below the highest earlier one.
/// 2. *Fast accept, O(n):* Lemma 8 — knots with `p/x` non-increasing
///    make `p̄` subadditive. The knot residual must be at most
///    `TOL·p̄(kₙ)/(2n·kₙ)`, small enough that no vertex below can exceed
///    [`TOL`] (DESIGN.md §17).
/// 3. *Vertex scan, O(n²):* otherwise `g` is evaluated at every vertex
///    `(kᵢ, kⱼ)` and `(kᵢ, kₗ − kᵢ)` (see the module docs).
///
/// ```
/// use mbp_core::arbitrage::{check, Arbitrage};
/// use mbp_core::pricing::PricingFunction;
///
/// let concave = PricingFunction::from_points(vec![1.0, 2.0, 4.0], vec![10.0, 14.0, 20.0]).unwrap();
/// assert!(check(&concave).is_ok());
/// // As sold, p̄(1) = 1 on the origin ray: precisions 1 and 2 cost 3 < p̄(3) = 3.5.
/// let knotted = PricingFunction::from_points(vec![2.0, 3.0], vec![2.0, 3.5]).unwrap();
/// let witness = check(&knotted).unwrap_err();
/// assert_eq!(
///     witness,
///     Arbitrage::Superadditive { x: 1.0, y: 2.0, parts_price: 3.0, whole_price: 3.5 }
/// );
/// assert_eq!(witness.margin(), 0.5);
/// ```
///
/// # Errors
/// The first [`Arbitrage`] found: a falling pair before any
/// superadditive one.
pub fn check(f: &PricingFunction) -> Result<(), Arbitrage> {
    let (grid, prices) = (f.grid(), f.prices());
    let mut top = (0.0, 0.0);
    for &k in grid {
        let p = f.price_at(k);
        if exceeds(top.1, p, TOL) {
            return Err(Arbitrage::Falling {
                lo: top.0,
                hi: k,
                p_lo: top.1,
                p_hi: p,
            });
        }
        if p > top.1 {
            top = (k, p);
        }
    }
    // Validated curves are non-empty; the fallback keeps this total.
    let k_max = grid.last().copied().unwrap_or(1.0);
    let scale = 2.0 * grid.len() as f64 * k_max;
    if relaxed_cone_residual(prices, grid) <= TOL * f.max_price() / scale {
        return Ok(());
    }
    let mut rest = grid;
    while let Some((&x, tail)) = rest.split_first() {
        let px = f.price_at(x);
        // The vertices (kᵢ, kⱼ) for j ≥ i, then (kᵢ, kₗ − kᵢ) for l > i.
        let ys = rest.iter().copied().chain(tail.iter().map(|&k| k - x));
        for y in ys {
            let parts_price = px + f.price_at(y);
            let whole_price = f.price_at(x + y);
            if exceeds(whole_price, parts_price, TOL) {
                return Err(Arbitrage::Superadditive {
                    x: x.min(y),
                    y: x.max(y),
                    parts_price,
                    whole_price,
                });
            }
        }
        rest = tail;
    }
    Ok(())
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

    fn curve(grid: &[f64], price: impl Fn(f64) -> f64) -> PricingFunction {
        PricingFunction::from_points(grid.to_vec(), grid.iter().map(|&x| price(x)).collect())
            .unwrap()
    }

    fn grid() -> Vec<f64> {
        (1..=10).map(|i| i as f64).collect()
    }

    #[test]
    fn linear_and_concave_pricing_pass() {
        // 3x is additive, 10·√x concave through the origin: both subadditive.
        assert_eq!(check(&curve(&grid(), |x| 3.0 * x)), Ok(()));
        assert_eq!(check(&curve(&grid(), |x| 10.0 * x.sqrt())), Ok(()));
        assert_eq!(check(&PricingFunction::constant(4.0)), Ok(()));
    }

    #[test]
    fn convex_pricing_is_superadditive_and_its_witness_prices() {
        // x² is superadditive: two x = 1 purchases (1 + 1) cover x = 2 (4).
        let pf = curve(&grid(), |x| x * x);
        let Err(Arbitrage::Superadditive {
            x,
            y,
            parts_price,
            whole_price,
        }) = check(&pf)
        else {
            panic!("x² must be superadditive");
        };
        assert_eq!(parts_price, pf.price_at(x) + pf.price_at(y));
        assert_eq!(whole_price, pf.price_at(x + y));
        assert!(exceeds(whole_price, parts_price, TOL));
    }

    #[test]
    fn decreasing_pricing_is_a_falling_pair() {
        let pf = PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![9.0, 5.0, 6.0]).unwrap();
        let witness = check(&pf).unwrap_err();
        assert_eq!(
            witness,
            Arbitrage::Falling {
                lo: 1.0,
                hi: 2.0,
                p_lo: 9.0,
                p_hi: 5.0
            }
        );
        assert_eq!(witness.margin(), 4.0);
    }

    #[test]
    fn a_cheap_part_on_the_origin_ray_is_found() {
        // Neither knot pair is superadditive: the attack buys p̄(1) = 1 off
        // the ray, a vertex (kᵢ, kₗ − kᵢ) and not (kᵢ, kⱼ).
        let pf = PricingFunction::from_points(vec![2.0, 3.0], vec![2.0, 3.5]).unwrap();
        let witness = check(&pf).unwrap_err();
        assert!(
            witness.to_string().contains("precisions 1 + 2 cost 3"),
            "{witness}"
        );
        assert_eq!(witness.margin(), 0.5);
    }

    #[test]
    fn rounding_noise_is_not_arbitrage() {
        // Additive on paper, but the knot ratios 3x/x drift by an ulp and
        // some g(x, y) is about −2e-14 in f64.
        let g: Vec<f64> = (1..=64).map(|i| 0.1 * i as f64).collect();
        let pf = curve(&g, |x| 3.0 * x);
        assert!(relaxed_cone_residual(pf.prices(), pf.grid()) > 0.0);
        assert_eq!(check(&pf), Ok(()));
        assert!(!exceeds(1.0 + 1e-12, 1.0, TOL));
        assert!(exceeds(1.0 + 1e-6, 1.0, TOL));
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
