//! The unbounded min-cost covering knapsack — the paper's subadditive
//! interpolation oracle.
//!
//! The proof of Theorem 7 constructs, for points `(a_j, z_j)` with integer
//! `a_j`, the function `μ(x) = min{Σ kᵢ zᵢ : kᵢ ∈ Z≥0, Σ kᵢ aᵢ ≥ x}`: the
//! cheapest unbounded multiset of items whose weights *cover* `x`. Two facts
//! make `μ` central to arbitrage-free pricing:
//!
//! 1. `μ` is non-decreasing and subadditive by construction (concatenate
//!    covers), so `min(μ, cap)` interpolates whenever interpolation is
//!    possible at all;
//! 2. a monotone subadditive function through the points exists **iff**
//!    `μ(a_j) = z_j` for every `j` — a strictly cheaper cover of `a_j` is
//!    precisely an arbitrage opportunity against price `z_j`.
//!
//! The [`exact`](crate::exact) revenue maximizer uses `μ` with costs set to
//! buyer valuations to compute the component-wise greatest arbitrage-free
//! price vector under caps.

/// One knapsack item: integer weight `a` and non-negative cost `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Weight (the paper's grid point `a_j`, a positive integer).
    pub weight: u64,
    /// Cost (the price `z_j ≥ 0`).
    pub cost: f64,
}

impl Item {
    /// Creates an item.
    ///
    /// # Panics
    /// Panics for zero weight or negative/non-finite cost.
    pub fn new(weight: u64, cost: f64) -> Self {
        assert!(weight > 0, "item weight must be positive");
        assert!(
            cost >= 0.0 && cost.is_finite(),
            "item cost must be finite and >= 0, got {cost}"
        );
        Item { weight, cost }
    }
}

/// The covering-cost function `μ` for a fixed item set, with all values up
/// to a target horizon precomputed by dynamic programming.
///
/// ```
/// use mbp_optim::knapsack::{CoverOracle, Item};
///
/// let oracle = CoverOracle::build(&[Item::new(5, 4.0), Item::new(3, 2.0)], 10);
/// assert_eq!(oracle.mu(6), 4.0); // two weight-3 items at cost 2 + 2
/// assert_eq!(oracle.mu(8), 6.0); // 5 + 3
/// ```
#[derive(Debug, Clone)]
pub struct CoverOracle {
    /// `table[x] = μ(x)` for `x = 0..=horizon`.
    table: Vec<f64>,
}

impl CoverOracle {
    /// Builds the oracle for `items` with `μ` tabulated up to `horizon`.
    ///
    /// Runs in `O(horizon × items)`. With an empty item set every positive
    /// target is uncoverable and `μ = +∞`.
    pub fn build(items: &[Item], horizon: u64) -> Self {
        let h = horizon as usize;
        let mut table = vec![f64::INFINITY; h + 1];
        table[0] = 0.0;
        for x in 1..=h {
            let mut best = f64::INFINITY;
            for it in items {
                let rest = x.saturating_sub(it.weight as usize);
                let prev = table[rest];
                if prev.is_finite() {
                    best = best.min(prev + it.cost);
                }
            }
            table[x] = best;
        }
        CoverOracle { table }
    }

    /// `μ(x)`: the cheapest multiset cost covering weight `x`.
    ///
    /// # Panics
    /// Panics when `x` exceeds the tabulated horizon.
    pub fn mu(&self, x: u64) -> f64 {
        self.table[x as usize]
    }
}

/// Checks whether a positive, monotone, subadditive function through the
/// integer-grid points exists (the paper's *subadditive interpolation*
/// decision problem, Definition 6).
///
/// By the Theorem 7 construction this holds iff no strictly cheaper cover of
/// any `a_j` exists, i.e. `μ(a_j) = z_j` for all `j` (tolerance `tol`
/// absorbs float error).
pub fn subadditive_interpolation_feasible(points: &[(u64, f64)], tol: f64) -> bool {
    if points.is_empty() {
        return true;
    }
    let items: Vec<Item> = points.iter().map(|&(a, z)| Item::new(a, z)).collect();
    let horizon = points.iter().map(|&(a, _)| a).max().unwrap_or(0);
    let oracle = CoverOracle::build(&items, horizon);
    points.iter().all(|&(a, z)| oracle.mu(a) >= z - tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_of_zero_is_zero() {
        let oracle = CoverOracle::build(&[Item::new(2, 3.0)], 10);
        assert_eq!(oracle.mu(0), 0.0);
    }

    #[test]
    fn single_item_covering() {
        let oracle = CoverOracle::build(&[Item::new(3, 2.0)], 10);
        assert_eq!(oracle.mu(1), 2.0); // one copy covers 1
        assert_eq!(oracle.mu(3), 2.0);
        assert_eq!(oracle.mu(4), 4.0); // two copies
        assert_eq!(oracle.mu(9), 6.0);
        assert_eq!(oracle.mu(10), 8.0);
    }

    #[test]
    fn picks_cheapest_combination() {
        let items = [Item::new(5, 4.0), Item::new(3, 2.0)];
        let oracle = CoverOracle::build(&items, 15);
        assert_eq!(oracle.mu(6), 4.0); // 3+3 at 2+2, or 5+3 at 6, or 5+5 at 8
        assert_eq!(oracle.mu(5), 4.0); // one 5 at 4 vs 3+3 at 4 — tie
        assert_eq!(oracle.mu(8), 6.0); // 5+3
    }

    #[test]
    fn empty_item_set_is_uncoverable() {
        let oracle = CoverOracle::build(&[], 5);
        assert_eq!(oracle.mu(0), 0.0);
        assert!(oracle.mu(1).is_infinite());
    }

    #[test]
    fn mu_is_monotone_and_subadditive() {
        let items = [Item::new(2, 1.5), Item::new(5, 3.0), Item::new(7, 3.5)];
        let oracle = CoverOracle::build(&items, 40);
        for x in 0..40 {
            assert!(oracle.mu(x) <= oracle.mu(x + 1) + 1e-12, "monotone at {x}");
        }
        for x in 0..=20u64 {
            for y in 0..=20u64 {
                assert!(
                    oracle.mu(x + y) <= oracle.mu(x) + oracle.mu(y) + 1e-9,
                    "subadditive at {x},{y}"
                );
            }
        }
    }

    #[test]
    fn interpolation_feasible_for_linear_prices() {
        // z = a is trivially interpolable by the identity function.
        let pts = [(1u64, 1.0), (2, 2.0), (5, 5.0)];
        assert!(subadditive_interpolation_feasible(&pts, 1e-9));
    }

    #[test]
    fn interpolation_infeasible_when_combination_undercuts() {
        // Two items of weight 1 at price 1 cover weight 2, so pricing
        // a=2 at 3 > 1+1 is not interpolable.
        let pts = [(1u64, 1.0), (2, 3.0)];
        assert!(!subadditive_interpolation_feasible(&pts, 1e-9));
        // Price 2 is exactly additive — feasible.
        let pts_ok = [(1u64, 1.0), (2, 2.0)];
        assert!(subadditive_interpolation_feasible(&pts_ok, 1e-9));
    }

    #[test]
    fn interpolation_detects_monotonicity_violation() {
        // Bigger weight, smaller price: the cheaper big item covers the
        // small target, undercutting it.
        let pts = [(2u64, 5.0), (4, 1.0)];
        assert!(!subadditive_interpolation_feasible(&pts, 1e-9));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_item_panics() {
        Item::new(0, 1.0);
    }
}
