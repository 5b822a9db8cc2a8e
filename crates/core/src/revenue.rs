//! Revenue optimization (Section 5 of the paper).
//!
//! Given `n` grid points `a₁ < … < a_n` on the inverse-NCP axis, the seller
//! picks prices `z_j = p̄(a_j)` maximizing an objective subject to the
//! pricing function being arbitrage-free and non-negative — problem (2).
//! That problem is coNP-hard (Theorem 7), so the paper relaxes
//! subadditivity to "`z_j/a_j` non-increasing" — problem (4) — losing at
//! most a factor 2 of revenue (Proposition 3) while every feasible point
//! stays arbitrage-free (Lemma 8).
//!
//! This module implements the full toolbox:
//!
//! * [`solve_bv_dp`] — the `O(n²)` dynamic program of Theorem 10 for the
//!   buyer-valuation objective `T_bv` on the relaxed problem (4);
//! * [`solve_bv_exact`] — exact optimum of the *original* problem (2) via
//!   the branch-and-bound solver (the paper's MILP baseline);
//! * [`solve_pi_l2`] / [`solve_pi_l1`] — price interpolation under `T²_pi`
//!   (Dykstra projection QP) and `T∞_pi` (simplex LP);
//! * [`Baseline`] — the four naive pricing schemes (`Lin`, `MaxC`, `MedC`,
//!   `OptC`) compared in Figures 7–10;
//! * [`revenue`] / [`affordability`] — evaluation of any pricing curve
//!   against a buyer population.

use crate::pricing::PricingFunction;
use mbp_optim::exact::{maximize_revenue_exact, quantize_grid, BuyerPoint as ExactPoint};
use mbp_optim::isotonic::{is_relaxed_feasible, project_relaxed_cone};
use mbp_optim::simplex::{Cmp, LinearProgram, LpStatus};

/// A buyer-population point: grid coordinate `a` (inverse NCP), valuation
/// `v`, and demand mass `b` (Section 5, "Revenue Maximization from Buyer
/// Valuations").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuyerPoint {
    /// Inverse-NCP grid coordinate `a_j > 0`.
    pub a: f64,
    /// Valuation `v_j ≥ 0`: this buyer purchases iff the price ≤ `v_j`.
    pub valuation: f64,
    /// Demand weight `b_j ≥ 0`.
    pub demand: f64,
}

impl BuyerPoint {
    /// Creates a buyer point, validating ranges.
    ///
    /// # Panics
    /// Panics for non-positive `a` or negative/non-finite `v`, `b`.
    pub fn new(a: f64, valuation: f64, demand: f64) -> Self {
        assert!(a > 0.0 && a.is_finite(), "grid point must be positive");
        assert!(
            valuation >= 0.0 && valuation.is_finite(),
            "valuation must be >= 0"
        );
        assert!(demand >= 0.0 && demand.is_finite(), "demand must be >= 0");
        BuyerPoint {
            a,
            valuation,
            demand,
        }
    }
}

/// A price-interpolation target: the seller wants `p̄(a) ≈ target`
/// (Section 5, "Price Interpolation").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    /// Inverse-NCP grid coordinate `a > 0`.
    pub a: f64,
    /// Desired price `P ≥ 0` at `a`.
    pub target: f64,
}

impl PricePoint {
    /// Creates a price point, validating ranges.
    ///
    /// # Panics
    /// Panics for non-positive `a` or negative/non-finite `target`.
    pub fn new(a: f64, target: f64) -> Self {
        assert!(a > 0.0 && a.is_finite(), "grid point must be positive");
        assert!(
            target >= 0.0 && target.is_finite(),
            "target price must be >= 0"
        );
        PricePoint { a, target }
    }
}

/// Result of a revenue-optimization solve.
#[derive(Debug, Clone)]
pub struct RevenueSolution {
    /// The optimized pricing function (grid = the input points).
    pub pricing: PricingFunction,
    /// Objective value achieved (revenue for `T_bv`; negated loss for the
    /// interpolation objectives).
    pub objective: f64,
}

fn check_grid(a: &[f64]) {
    assert!(!a.is_empty(), "need at least one grid point");
    assert!(
        a.windows(2).all(|w| w[0] < w[1]) && a[0] > 0.0,
        "grid must be positive and strictly ascending"
    );
}

// ---------------------------------------------------------------------------
// Theorem 10: O(n²) dynamic program for T_bv on the relaxed problem (4).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    /// Case of Lemma 12: price pinned to the ratio cap, `z_k = Δ·a_k`.
    RatioCap,
    /// Lemma 13 first option: `z_k = v_k`, tightening Δ to `v_k/a_k`.
    TakeValuation,
    /// Lemma 13 second option: buyer `k` priced out
    /// (`z_k = z_{k+1}·a_k/a_{k+1}`, contributing no revenue).
    SkipBuyer,
}

/// Solves `max Σ b_j z_j·1[z_j ≤ v_j]` over the relaxed constraint set of
/// problem (4) with the exact `O(n²)` dynamic program of Theorem 10.
///
/// Requires valuations non-decreasing in `a` (the paper's standing
/// assumption: buyers value accuracy monotonically). The returned prices
/// are feasible for (4) — hence arbitrage-free by Lemma 8 — and optimal
/// among all such price vectors.
///
/// ```
/// use mbp_core::revenue::{solve_bv_dp, BuyerPoint};
///
/// // The paper's Figure 5 instance.
/// let buyers = vec![
///     BuyerPoint::new(1.0, 100.0, 0.25),
///     BuyerPoint::new(2.0, 150.0, 0.25),
///     BuyerPoint::new(3.0, 280.0, 0.25),
///     BuyerPoint::new(4.0, 350.0, 0.25),
/// ];
/// let sol = solve_bv_dp(&buyers);
/// assert_eq!(sol.pricing.prices(), &[100.0, 150.0, 225.0, 300.0]);
/// assert!((sol.objective - 193.75).abs() < 1e-9);
/// ```
///
/// # Panics
/// Panics when the grid is invalid or valuations are not non-decreasing.
pub fn solve_bv_dp(points: &[BuyerPoint]) -> RevenueSolution {
    let bonus = vec![0.0; points.len()];
    dp_weighted(points, &bonus)
}

/// Revenue–fairness trade-off (flagged as future work in the paper's
/// Section 7): solves `max Σ (b_j z_j + λ b_j)·1[z_j ≤ v_j]` over the
/// relaxed set — every *served* unit of demand earns an extra scalarization
/// bonus `λ`, so larger `λ` trades revenue for affordability.
///
/// The Theorem 10 recurrences remain exact under a per-served-buyer bonus:
/// every exchange argument in Lemmas 11–13 compares solutions that serve
/// the same buyer at different prices (the bonus cancels) or strictly more
/// buyers at no revenue loss (the bonus only reinforces the choice).
///
/// The reported `objective` is the *revenue* of the resulting prices (the
/// bonus is a steering term, not money); use
/// [`affordability`] to read off the fairness side of the trade-off.
///
/// # Panics
/// Panics when the grid is invalid, valuations are not non-decreasing, or
/// `lambda` is negative/non-finite.
pub fn solve_bv_dp_fair(points: &[BuyerPoint], lambda: f64) -> RevenueSolution {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "fairness weight must be finite and >= 0, got {lambda}"
    );
    let bonus: Vec<f64> = points.iter().map(|p| lambda * p.demand).collect();
    dp_weighted(points, &bonus)
}

/// Shared Theorem 10 DP with a per-served-buyer reward of
/// `b_k·z_k + bonus_k` (plain revenue maximization uses `bonus = 0`).
fn dp_weighted(points: &[BuyerPoint], bonus: &[f64]) -> RevenueSolution {
    let _span = mbp_obs::span("mbp.optim.revenue");
    let n = points.len();
    let a: Vec<f64> = points.iter().map(|p| p.a).collect();
    check_grid(&a);
    let v: Vec<f64> = points.iter().map(|p| p.valuation).collect();
    let b: Vec<f64> = points.iter().map(|p| p.demand).collect();
    assert!(
        v.windows(2).all(|w| w[0] <= w[1]),
        "the Theorem 10 DP requires valuations non-decreasing in a"
    );

    // Δ values: index j < n ⇒ v_j/a_j; index n ⇒ +∞.
    let delta = |di: usize| -> f64 {
        if di == n {
            f64::INFINITY
        } else {
            v[di] / a[di]
        }
    };
    // value[k][di], choice[k][di].
    let mut value = vec![vec![0.0_f64; n + 1]; n];
    let mut choice = vec![vec![Choice::SkipBuyer; n + 1]; n];
    for di in 0..=n {
        let d = delta(di);
        let s = if d.is_finite() {
            f64::min(v[n - 1], d * a[n - 1])
        } else {
            v[n - 1]
        };
        value[n - 1][di] = b[n - 1] * s + bonus[n - 1];
        // Choice at the last point is implicit (min of the two caps); mark
        // it RatioCap when the ratio binds, TakeValuation otherwise.
        choice[n - 1][di] = if d.is_finite() && d * a[n - 1] <= v[n - 1] {
            Choice::RatioCap
        } else {
            Choice::TakeValuation
        };
    }
    for k in (0..n.saturating_sub(1)).rev() {
        for di in 0..=n {
            let d = delta(di);
            if d.is_finite() && a[k] * d <= v[k] {
                // Lemma 12: the ratio cap binds below the valuation.
                value[k][di] = b[k] * d * a[k] + bonus[k] + value[k + 1][di];
                choice[k][di] = Choice::RatioCap;
            } else {
                // Lemma 13: sell at v_k (tighten Δ) or price the buyer out.
                let opt1 = b[k] * v[k] + bonus[k] + value[k + 1][k];
                let opt2 = value[k + 1][di];
                if opt1 >= opt2 {
                    value[k][di] = opt1;
                    choice[k][di] = Choice::TakeValuation;
                } else {
                    value[k][di] = opt2;
                    choice[k][di] = Choice::SkipBuyer;
                }
            }
        }
    }

    // Reconstruction: forward pass records the Δ path and choices; skipped
    // buyers inherit `z_k = z_{k+1}·a_k/a_{k+1}` in a backward pass.
    let mut z = vec![f64::NAN; n];
    let mut pending_skip = Vec::new();
    let mut di = n;
    for k in 0..n {
        match choice[k][di] {
            Choice::RatioCap => {
                z[k] = delta(di) * a[k];
            }
            Choice::TakeValuation => {
                z[k] = v[k];
                if k < n - 1 {
                    di = k;
                }
            }
            Choice::SkipBuyer => {
                pending_skip.push(k);
            }
        }
    }
    for &k in pending_skip.iter().rev() {
        debug_assert!(k + 1 < n, "last point is never skipped");
        z[k] = z[k + 1] * a[k] / a[k + 1];
    }
    // n·(n+1) DP cells evaluated, plus the reconstruction pass.
    mbp_obs::counter_add("mbp.optim.revenue.iterations", (n * (n + 1) + n) as u64);
    mbp_obs::counter_add("mbp.optim.revenue.priced_out", pending_skip.len() as u64);
    debug_assert!(
        is_relaxed_feasible(&z, &a, 1e-7),
        "DP produced an infeasible price vector: {z:?}"
    );
    let objective = revenue_of_prices(&z, points);
    let served_bonus: f64 = z
        .iter()
        .zip(points)
        .zip(bonus)
        .filter(|((&zj, p), _)| zj <= p.valuation + 1e-9)
        .map(|((_, _), &bo)| bo)
        .sum();
    debug_assert!(
        (objective + served_bonus - value[0][n]).abs() < 1e-6 * (1.0 + value[0][n].abs()),
        "reconstruction ({objective} + bonus {served_bonus}) disagrees with DP value ({})",
        value[0][n]
    );
    mbp_obs::gauge_set("mbp.optim.revenue.objective", objective);
    mbp_obs::event(
        mbp_obs::Verbosity::Debug,
        "mbp.optim.revenue",
        "theorem-10 DP solved",
        &[
            ("n", n.to_string()),
            ("objective", format!("{objective:.6}")),
            ("priced_out", pending_skip.len().to_string()),
        ],
    );
    RevenueSolution {
        pricing: PricingFunction::from_points(a, z).expect("DP output is valid"),
        objective,
    }
}

// ---------------------------------------------------------------------------
// Exact solver (the MILP stand-in) on the original problem (2).
// ---------------------------------------------------------------------------

/// Result of the exact solver, including its exponential work counter.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The piecewise-linear interpolant of problem (2)'s optimal prices.
    /// Problem (2) checks each grid price against covers built from grid
    /// bundles only (the paper's model), so the interpolant, which also
    /// sells the origin ray and the points between knots, need not pass
    /// [`check`](crate::arbitrage::check): on buyers `(a, v) = (2, 2)` and
    /// `(3, 3.5)` it is `[2, 3.5]`, and `p̄(1) + p̄(2) = 3 < p̄(3)`.
    pub pricing: PricingFunction,
    /// Optimal revenue of problem (2).
    pub objective: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes_explored: u64,
}

/// Exactly solves problem (2) with the `T_bv` objective by quantizing the
/// grid with `scale` steps per unit and running branch-and-bound
/// (exponential time — this is the Figures 9/10 "MILP" baseline).
pub fn solve_bv_exact(points: &[BuyerPoint], scale: f64) -> ExactSolution {
    let a: Vec<f64> = points.iter().map(|p| p.a).collect();
    check_grid(&a);
    let qa = quantize_grid(&a, scale);
    assert!(
        qa.windows(2).all(|w| w[0] < w[1]),
        "quantization collapsed grid points; increase scale"
    );
    let exact_points: Vec<ExactPoint> = points
        .iter()
        .zip(&qa)
        .map(|(p, &q)| ExactPoint::new(q, p.valuation, p.demand))
        .collect();
    let sol = maximize_revenue_exact(&exact_points);
    mbp_obs::counter_add("mbp.optim.exact.nodes", sol.nodes_explored);
    ExactSolution {
        pricing: PricingFunction::from_points(a, sol.prices).expect("exact output is valid"),
        objective: sol.revenue,
        nodes_explored: sol.nodes_explored,
    }
}

// ---------------------------------------------------------------------------
// Price interpolation: T²_pi (QP) and T∞_pi (LP).
// ---------------------------------------------------------------------------

/// Solves the `T²_pi` objective — minimize `Σ (z_j − P_j)²` over the
/// relaxed set (4) — as a Euclidean projection (Dykstra + PAVA).
pub fn solve_pi_l2(points: &[PricePoint]) -> RevenueSolution {
    let _span = mbp_obs::span("mbp.optim.revenue");
    let a: Vec<f64> = points.iter().map(|p| p.a).collect();
    check_grid(&a);
    let targets: Vec<f64> = points.iter().map(|p| p.target).collect();
    let proj = project_relaxed_cone(&targets, &a, 1e-10);
    mbp_obs::counter_add("mbp.optim.revenue.iterations", proj.iterations as u64);
    // Targets the projection had to move were infeasible for the relaxed
    // cone as given — each one is a feasibility rejection.
    let moved = proj
        .z
        .iter()
        .zip(&targets)
        .filter(|(z, p)| (**z - **p).abs() > 1e-7 * (1.0 + p.abs()))
        .count();
    mbp_obs::counter_add("mbp.optim.revenue.feasibility_rejections", moved as u64);
    let loss: f64 = proj
        .z
        .iter()
        .zip(&targets)
        .map(|(z, p)| (z - p) * (z - p))
        .sum();
    // Clamp away any residual numerical negativity before constructing.
    let z: Vec<f64> = proj.z.iter().map(|&x| x.max(0.0)).collect();
    RevenueSolution {
        pricing: PricingFunction::from_points(a, z).expect("projection output is valid"),
        objective: -loss,
    }
}

/// Solves the `T∞_pi` objective — minimize `Σ |z_j − P_j|` over the relaxed
/// set (4) — as a linear program (split variables + simplex).
pub fn solve_pi_l1(points: &[PricePoint]) -> RevenueSolution {
    let _span = mbp_obs::span("mbp.optim.revenue");
    let n = points.len();
    let a: Vec<f64> = points.iter().map(|p| p.a).collect();
    check_grid(&a);
    // Variables: z_1..z_n, t_1..t_n; minimize Σ t_j.
    let mut c = vec![0.0; 2 * n];
    for tc in c.iter_mut().skip(n) {
        *tc = 1.0;
    }
    let mut lp = LinearProgram::new(2 * n, c);
    for (j, p) in points.iter().enumerate() {
        // z_j − t_j ≤ P_j  and  −z_j − t_j ≤ −P_j.
        let mut row = vec![0.0; 2 * n];
        row[j] = 1.0;
        row[n + j] = -1.0;
        lp.constrain(row, Cmp::Le, p.target);
        let mut row = vec![0.0; 2 * n];
        row[j] = -1.0;
        row[n + j] = -1.0;
        lp.constrain(row, Cmp::Le, -p.target);
    }
    for j in 0..n.saturating_sub(1) {
        // Monotone: z_j − z_{j+1} ≤ 0.
        let mut row = vec![0.0; 2 * n];
        row[j] = 1.0;
        row[j + 1] = -1.0;
        lp.constrain(row, Cmp::Le, 0.0);
        // Ratio: a_j·z_{j+1} − a_{j+1}·z_j ≤ 0.
        let mut row = vec![0.0; 2 * n];
        row[j + 1] = a[j];
        row[j] = -a[j + 1];
        lp.constrain(row, Cmp::Le, 0.0);
    }
    let sol = lp.minimize();
    mbp_obs::gauge_set("mbp.optim.revenue.objective", -sol.objective);
    assert_eq!(
        sol.status,
        LpStatus::Optimal,
        "T∞ interpolation LP must be feasible and bounded (z = 0 is feasible)"
    );
    let z: Vec<f64> = sol.x[..n].iter().map(|&x| x.max(0.0)).collect();
    RevenueSolution {
        pricing: PricingFunction::from_points(a, z).expect("LP output is valid"),
        objective: -sol.objective,
    }
}

/// Maximizes a *general* separable concave objective over the relaxed set
/// (the setting of Proposition 2) by projected gradient ascent — use this
/// for objectives beyond the built-in `T_bv`/`T²_pi`/`T∞_pi`, e.g.
/// saturating revenue surrogates.
///
/// `start` seeds the ascent (e.g. the targets, or the DP solution).
pub fn solve_separable_concave(
    obj: &impl mbp_optim::projgrad::SeparableConcave,
    grid: &[f64],
    start: &[f64],
) -> RevenueSolution {
    check_grid(grid);
    let sol = mbp_optim::projgrad::maximize_separable_concave(obj, grid, start, 5000, 1e-10);
    mbp_obs::counter_add("mbp.optim.revenue.iterations", sol.iterations as u64);
    mbp_obs::gauge_set("mbp.optim.revenue.objective", sol.objective);
    let z: Vec<f64> = sol.z.iter().map(|&x| x.max(0.0)).collect();
    RevenueSolution {
        pricing: PricingFunction::from_points(grid.to_vec(), z).expect("projected point is valid"),
        objective: sol.objective,
    }
}

// ---------------------------------------------------------------------------
// Naive baselines (Section 6.2).
// ---------------------------------------------------------------------------

/// The four baseline pricing schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Linear interpolation between the smallest and largest valuation
    /// (intercept clamped at 0 to stay subadditive).
    Lin,
    /// A single price equal to the highest valuation.
    MaxC,
    /// A single price affordable by at least half the demand mass.
    MedC,
    /// The revenue-maximizing single price.
    OptC,
}

impl Baseline {
    /// All four baselines in paper order.
    pub const ALL: [Baseline; 4] = [
        Baseline::Lin,
        Baseline::MaxC,
        Baseline::MedC,
        Baseline::OptC,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::Lin => "Lin",
            Baseline::MaxC => "MaxC",
            Baseline::MedC => "MedC",
            Baseline::OptC => "OptC",
        }
    }

    /// Builds the baseline pricing function for a buyer population.
    ///
    /// # Panics
    /// Panics on an empty or invalid grid.
    pub fn pricing(&self, points: &[BuyerPoint]) -> PricingFunction {
        let a: Vec<f64> = points.iter().map(|p| p.a).collect();
        check_grid(&a);
        let n = points.len();
        match self {
            Baseline::Lin => {
                if n == 1 {
                    return PricingFunction::from_points(a, vec![points[0].valuation])
                        .expect("valid");
                }
                let (a1, v1) = (points[0].a, points[0].valuation);
                let (an, vn) = (points[n - 1].a, points[n - 1].valuation);
                let m = (vn - v1) / (an - a1);
                let c = v1 - m * a1;
                let z: Vec<f64> = if m >= 0.0 && c >= 0.0 {
                    a.iter().map(|&x| c + m * x).collect()
                } else if vn >= v1 {
                    // Negative intercept (convex value curve): the affine
                    // extension would be superadditive. Use the steepest
                    // subadditive line through the top point instead.
                    a.iter().map(|&x| vn * x / an).collect()
                } else {
                    // Decreasing valuations: fall back to a constant.
                    vec![vn.min(v1); n]
                };
                PricingFunction::from_points(a, z).expect("valid")
            }
            Baseline::MaxC => {
                let top = points.iter().map(|p| p.valuation).fold(0.0_f64, f64::max);
                PricingFunction::from_points(a, vec![top; n]).expect("valid")
            }
            Baseline::MedC => {
                let total: f64 = points.iter().map(|p| p.demand).sum();
                let mut cands: Vec<f64> = points.iter().map(|p| p.valuation).collect();
                cands.sort_by(|x, y| y.total_cmp(x));
                let mut best = points
                    .iter()
                    .map(|p| p.valuation)
                    .fold(f64::INFINITY, f64::min);
                for &p in &cands {
                    let mass: f64 = points
                        .iter()
                        .filter(|pt| pt.valuation >= p)
                        .map(|pt| pt.demand)
                        .sum();
                    if mass >= 0.5 * total {
                        best = p;
                        break;
                    }
                }
                PricingFunction::from_points(a, vec![best; n]).expect("valid")
            }
            Baseline::OptC => {
                let mut best = (0.0, 0.0); // (revenue, price)
                for p in points {
                    let price = p.valuation;
                    let rev: f64 = points
                        .iter()
                        .filter(|pt| pt.valuation >= price)
                        .map(|pt| pt.demand * price)
                        .sum();
                    if rev > best.0 {
                        best = (rev, price);
                    }
                }
                PricingFunction::from_points(a, vec![best.1; n]).expect("valid")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

fn revenue_of_prices(z: &[f64], points: &[BuyerPoint]) -> f64 {
    z.iter()
        .zip(points)
        .filter(|&(&zj, p)| zj <= p.valuation + 1e-9)
        .map(|(&zj, p)| p.demand * zj)
        .sum()
}

/// Buyer points per chunk in [`welfare`]'s sums: each chunk is summed in
/// index order and the chunk sums are added in chunk order, one summation
/// order per population size.
const EVAL_GRAIN: usize = 2048;

/// The price vector `z_j = p̄(a_j)` for the whole population, evaluated
/// exactly once and shared by [`revenue`], [`affordability`],
/// [`buyer_surplus`], and [`welfare`] so no metric re-queries the curve per
/// point.
pub fn price_vector(pf: &PricingFunction, points: &[BuyerPoint]) -> Vec<f64> {
    points.iter().map(|p| pf.price_at(p.a)).collect()
}

/// Revenue of pricing `pf` against the buyer population: each point pays
/// `p̄(a_j)` iff that is at most its valuation.
pub fn revenue(pf: &PricingFunction, points: &[BuyerPoint]) -> f64 {
    revenue_of_prices(&price_vector(pf, points), points)
}

/// Affordability ratio: the fraction of demand mass that can afford its
/// model instance (Section 6.2).
pub fn affordability(pf: &PricingFunction, points: &[BuyerPoint]) -> f64 {
    let total: f64 = points.iter().map(|p| p.demand).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let z = price_vector(pf, points);
    let served: f64 = z
        .iter()
        .zip(points)
        .filter(|&(&zj, p)| zj <= p.valuation + 1e-9)
        .map(|(_, p)| p.demand)
        .sum();
    served / total
}

/// Buyer surplus: `Σ b_j (v_j − p̄(a_j))` over served points — the welfare
/// buyers keep after paying. Together with [`revenue`] it decomposes the
/// realized social welfare; `welfare = revenue + surplus`.
pub fn buyer_surplus(pf: &PricingFunction, points: &[BuyerPoint]) -> f64 {
    let z = price_vector(pf, points);
    z.iter()
        .zip(points)
        .filter(|&(&zj, p)| zj <= p.valuation + 1e-9)
        .map(|(&zj, p)| p.demand * (p.valuation - zj))
        .sum()
}

/// Welfare accounting of a pricing function against a buyer population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketWelfare {
    /// Seller revenue.
    pub revenue: f64,
    /// Buyer surplus.
    pub buyer_surplus: f64,
    /// Affordability ratio.
    pub affordability: f64,
    /// Realized welfare as a fraction of total surplus `Σ b_j v_j`
    /// (1.0 = fully efficient market; in [0, 1]).
    pub efficiency: f64,
}

/// Computes the full welfare decomposition in a single pass over the
/// population: the price vector is evaluated once and revenue, surplus,
/// served mass, and total surplus accumulate together, per fixed
/// 2048-point chunk (`EVAL_GRAIN`), with the chunk sums added in chunk
/// order.
pub fn welfare(pf: &PricingFunction, points: &[BuyerPoint]) -> MarketWelfare {
    let z = price_vector(pf, points);
    // (revenue, buyer surplus, served mass, total demand, total surplus).
    let mut sums = [0.0f64; 5];
    for (chunk, zc) in points.chunks(EVAL_GRAIN).zip(z.chunks(EVAL_GRAIN)) {
        let mut acc = [0.0f64; 5];
        for (p, &zj) in chunk.iter().zip(zc) {
            acc[3] += p.demand;
            acc[4] += p.demand * p.valuation;
            if zj <= p.valuation + 1e-9 {
                acc[0] += p.demand * zj;
                acc[1] += p.demand * (p.valuation - zj);
                acc[2] += p.demand;
            }
        }
        for (s, a) in sums.iter_mut().zip(&acc) {
            *s += a;
        }
    }
    let [revenue, buyer_surplus, served, total_demand, total_surplus] = sums;
    MarketWelfare {
        revenue,
        buyer_surplus,
        affordability: if total_demand > 0.0 {
            served / total_demand
        } else {
            0.0
        },
        efficiency: if total_surplus > 0.0 {
            (revenue + buyer_surplus) / total_surplus
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure5_points() -> Vec<BuyerPoint> {
        vec![
            BuyerPoint::new(1.0, 100.0, 0.25),
            BuyerPoint::new(2.0, 150.0, 0.25),
            BuyerPoint::new(3.0, 280.0, 0.25),
            BuyerPoint::new(4.0, 350.0, 0.25),
        ]
    }

    #[test]
    fn dp_on_figure5() {
        let sol = solve_bv_dp(&figure5_points());
        // Relaxed optimum: candidate z = (100, 150, 225, 300) from
        // Δ = 75 (=v_2/a_2) after taking v_1, v_2... verify against the
        // exact enumeration below instead of hand numbers:
        let z = sol.pricing.prices();
        assert!(is_relaxed_feasible(z, sol.pricing.grid(), 1e-9));
        // Within a factor 2 of the exact optimum (Proposition 3) and never
        // above it.
        let exact = solve_bv_exact(&figure5_points(), 1.0);
        assert!((exact.objective - 200.0).abs() < 1e-9);
        assert!(sol.objective <= exact.objective + 1e-9);
        assert!(sol.objective >= exact.objective / 2.0 - 1e-9);
        // In this instance the relaxation is nearly tight (paper Figure 5e
        // shows the approx pricing close to optimal).
        assert!(sol.objective >= 0.9 * exact.objective, "{}", sol.objective);
    }

    #[test]
    fn dp_single_point() {
        let sol = solve_bv_dp(&[BuyerPoint::new(2.0, 30.0, 2.0)]);
        assert!((sol.objective - 60.0).abs() < 1e-12);
        assert_eq!(sol.pricing.prices(), &[30.0]);
    }

    #[test]
    fn dp_prices_are_monotone_and_ratio_feasible() {
        let pts = vec![
            BuyerPoint::new(1.0, 10.0, 0.3),
            BuyerPoint::new(2.0, 11.0, 0.1),
            BuyerPoint::new(4.0, 50.0, 0.6),
            BuyerPoint::new(8.0, 55.0, 0.2),
        ];
        let sol = solve_bv_dp(&pts);
        assert!(is_relaxed_feasible(
            sol.pricing.prices(),
            sol.pricing.grid(),
            1e-9
        ));
    }

    /// Exhaustive validation of the DP on small random instances against a
    /// fine grid search over the relaxed feasible set.
    #[test]
    fn dp_matches_brute_force_on_small_instances() {
        let instances: Vec<Vec<BuyerPoint>> = vec![
            vec![
                BuyerPoint::new(1.0, 4.0, 1.0),
                BuyerPoint::new(2.0, 10.0, 1.0),
            ],
            vec![
                BuyerPoint::new(1.0, 2.0, 0.2),
                BuyerPoint::new(2.0, 9.0, 1.5),
                BuyerPoint::new(3.0, 9.5, 0.4),
            ],
            vec![
                BuyerPoint::new(2.0, 6.0, 1.0),
                BuyerPoint::new(3.0, 6.0, 1.0),
                BuyerPoint::new(6.0, 30.0, 0.5),
            ],
        ];
        for pts in instances {
            let sol = solve_bv_dp(&pts);
            let brute = brute_force_relaxed(&pts, 160);
            assert!(
                sol.objective >= brute - 0.15,
                "DP {} < brute force {brute} on {pts:?}",
                sol.objective
            );
        }
    }

    /// Coarse brute force over the relaxed set: price ratios are chosen from
    /// a grid of levels, exploiting that an optimal solution has
    /// z_j = min(v_j, Δ_j a_j) for a non-increasing sequence Δ_j.
    fn brute_force_relaxed(pts: &[BuyerPoint], levels: usize) -> f64 {
        let max_ratio = pts
            .iter()
            .map(|p| p.valuation / p.a)
            .fold(0.0_f64, f64::max);
        let mut best = 0.0_f64;
        // Enumerate non-increasing ratio sequences from the level grid
        // recursively.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            pts: &[BuyerPoint],
            k: usize,
            prev_ratio: f64,
            z_prev: f64,
            acc: f64,
            levels: usize,
            max_ratio: f64,
            best: &mut f64,
        ) {
            if k == pts.len() {
                *best = f64::max(*best, acc);
                return;
            }
            for l in 0..=levels {
                let ratio = max_ratio * l as f64 / levels as f64;
                if ratio > prev_ratio {
                    continue;
                }
                let z = ratio * pts[k].a;
                if z < z_prev - 1e-12 {
                    continue;
                }
                let pay = if z <= pts[k].valuation + 1e-12 {
                    pts[k].demand * z
                } else {
                    0.0
                };
                rec(pts, k + 1, ratio, z, acc + pay, levels, max_ratio, best);
            }
        }
        rec(
            pts,
            0,
            f64::INFINITY,
            0.0,
            0.0,
            levels,
            max_ratio,
            &mut best,
        );
        best
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn dp_rejects_decreasing_valuations() {
        solve_bv_dp(&[
            BuyerPoint::new(1.0, 10.0, 1.0),
            BuyerPoint::new(2.0, 5.0, 1.0),
        ]);
    }

    #[test]
    fn exact_dominates_dp_and_factor2_holds() {
        // Random-ish instances with integer grids.
        let cases = vec![
            vec![
                BuyerPoint::new(1.0, 3.0, 0.5),
                BuyerPoint::new(2.0, 30.0, 1.0),
                BuyerPoint::new(5.0, 31.0, 0.7),
            ],
            vec![
                BuyerPoint::new(2.0, 8.0, 1.0),
                BuyerPoint::new(4.0, 9.0, 0.2),
                BuyerPoint::new(6.0, 28.0, 0.9),
                BuyerPoint::new(8.0, 35.0, 0.4),
            ],
        ];
        for pts in cases {
            let dp = solve_bv_dp(&pts);
            let exact = solve_bv_exact(&pts, 1.0);
            assert!(dp.objective <= exact.objective + 1e-9, "{pts:?}");
            assert!(
                dp.objective >= exact.objective / 2.0 - 1e-9,
                "Proposition 3 violated: {} < {}/2 on {pts:?}",
                dp.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn l2_interpolation_exact_when_feasible() {
        // Targets already in the relaxed cone are reproduced exactly.
        let pts = vec![
            PricePoint::new(1.0, 2.0),
            PricePoint::new(2.0, 3.0),
            PricePoint::new(4.0, 5.0),
        ];
        let sol = solve_pi_l2(&pts);
        for (z, p) in sol.pricing.prices().iter().zip(&pts) {
            assert!((z - p.target).abs() < 1e-7);
        }
        assert!(sol.objective.abs() < 1e-10);
    }

    #[test]
    fn l1_interpolation_exact_when_feasible() {
        let pts = vec![
            PricePoint::new(1.0, 2.0),
            PricePoint::new(2.0, 3.0),
            PricePoint::new(4.0, 5.0),
        ];
        let sol = solve_pi_l1(&pts);
        for (z, p) in sol.pricing.prices().iter().zip(&pts) {
            assert!((z - p.target).abs() < 1e-7);
        }
    }

    #[test]
    fn interpolation_projects_infeasible_targets() {
        // Superadditive targets must be pulled down into the cone.
        let pts = vec![PricePoint::new(1.0, 1.0), PricePoint::new(2.0, 10.0)];
        let l2 = solve_pi_l2(&pts);
        let l1 = solve_pi_l1(&pts);
        for sol in [&l2, &l1] {
            let z = sol.pricing.prices();
            assert!(
                is_relaxed_feasible(z, sol.pricing.grid(), 1e-7),
                "{z:?} infeasible"
            );
            assert!(z[1] <= 2.0 * z[0] + 1e-7);
        }
    }

    #[test]
    fn baselines_shapes() {
        let pts = figure5_points();
        let lin = Baseline::Lin.pricing(&pts);
        // v₁=100 at a=1, v₄=350 at a=4 → slope 83.3, intercept 16.7 ≥ 0.
        assert!((lin.price_at(1.0) - 100.0).abs() < 1e-9);
        assert!((lin.price_at(4.0) - 350.0).abs() < 1e-9);
        let maxc = Baseline::MaxC.pricing(&pts);
        assert_eq!(maxc.price_at(2.0), 350.0);
        let medc = Baseline::MedC.pricing(&pts);
        // Half the mass (0.5 of 1.0) affords at price 280 (two buyers).
        assert_eq!(medc.price_at(2.0), 280.0);
        let optc = Baseline::OptC.pricing(&pts);
        // Candidates: 100×1.0=100, 150×0.75=112.5, 280×0.5=140, 350×0.25=87.5.
        assert_eq!(optc.price_at(2.0), 280.0);
    }

    #[test]
    fn lin_clamps_negative_intercept() {
        // Convex valuations: line through (1, 1) and (4, 40) has intercept
        // 1 − 13·1 < 0; Lin must fall back to the subadditive ray.
        let pts = vec![
            BuyerPoint::new(1.0, 1.0, 1.0),
            BuyerPoint::new(2.0, 5.0, 1.0),
            BuyerPoint::new(4.0, 40.0, 1.0),
        ];
        let lin = Baseline::Lin.pricing(&pts);
        let z = lin.prices();
        assert!(is_relaxed_feasible(z, lin.grid(), 1e-9), "{z:?}");
        assert!((lin.price_at(4.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn revenue_and_affordability_eval() {
        let pts = figure5_points();
        let maxc = Baseline::MaxC.pricing(&pts);
        // Only the top buyer affords 350.
        assert!((revenue(&maxc, &pts) - 87.5).abs() < 1e-9);
        assert!((affordability(&maxc, &pts) - 0.25).abs() < 1e-12);
        let free =
            PricingFunction::from_points(pts.iter().map(|p| p.a).collect(), vec![0.0; 4]).unwrap();
        assert_eq!(revenue(&free, &pts), 0.0);
        assert_eq!(affordability(&free, &pts), 1.0);
    }

    #[test]
    fn welfare_decomposition_adds_up() {
        let pts = figure5_points();
        let dp = solve_bv_dp(&pts);
        let w = welfare(&dp.pricing, &pts);
        assert!((w.revenue - dp.objective).abs() < 1e-9);
        assert!(w.buyer_surplus >= -1e-12);
        let total: f64 = pts.iter().map(|p| p.demand * p.valuation).sum();
        assert!((w.revenue + w.buyer_surplus - w.efficiency * total).abs() < 1e-9);
        assert!(w.efficiency <= 1.0 + 1e-12);
        // The DP serves everyone here, so the market is fully efficient:
        // every unit of unextracted valuation shows up as buyer surplus.
        assert!((w.efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn welfare_of_maxc_leaves_no_surplus_for_the_top_buyer() {
        let pts = figure5_points();
        let maxc = Baseline::MaxC.pricing(&pts);
        let w = welfare(&maxc, &pts);
        // Only the top buyer is served, at exactly their valuation.
        assert!((w.buyer_surplus - 0.0).abs() < 1e-9);
        assert!((w.affordability - 0.25).abs() < 1e-12);
        assert!(w.efficiency < 0.5);
    }

    #[test]
    fn fairness_lambda_zero_is_plain_dp() {
        let pts = figure5_points();
        let plain = solve_bv_dp(&pts);
        let fair = solve_bv_dp_fair(&pts, 0.0);
        assert_eq!(plain.pricing.prices(), fair.pricing.prices());
        assert_eq!(plain.objective, fair.objective);
    }

    #[test]
    fn fairness_trades_revenue_for_affordability() {
        // An instance where pure revenue maximization prices out the small
        // buyer: big buyer at a=2 with huge valuation, tiny buyer at a=1.
        let pts = vec![
            BuyerPoint::new(1.0, 2.0, 1.0),
            BuyerPoint::new(2.0, 100.0, 1.0),
        ];
        let plain = solve_bv_dp(&pts);
        // Serving the small buyer caps z2 at 2·2 = 4 → revenue ≤ 6; pricing
        // them out earns 100.
        assert!((plain.objective - 100.0).abs() < 1e-9);
        assert!((affordability(&plain.pricing, &pts) - 0.5).abs() < 1e-12);
        // A large fairness weight flips the decision.
        let fair = solve_bv_dp_fair(&pts, 200.0);
        assert_eq!(affordability(&fair.pricing, &pts), 1.0);
        assert!((fair.objective - 6.0).abs() < 1e-9, "{}", fair.objective);
        // Revenue at λ = 0 is an upper bound for every λ.
        for lambda in [0.5, 5.0, 50.0, 500.0] {
            let f = solve_bv_dp_fair(&pts, lambda);
            assert!(f.objective <= plain.objective + 1e-9);
            assert!(affordability(&f.pricing, &pts) >= affordability(&plain.pricing, &pts) - 1e-12);
        }
    }

    #[test]
    fn fairness_prices_stay_arbitrage_free() {
        let pts = figure5_points();
        for lambda in [0.0, 10.0, 1000.0] {
            let fair = solve_bv_dp_fair(&pts, lambda);
            assert!(is_relaxed_feasible(
                fair.pricing.prices(),
                fair.pricing.grid(),
                1e-9
            ));
        }
    }

    #[test]
    fn separable_concave_solver_matches_l2_interpolation() {
        let pts = vec![
            PricePoint::new(1.0, 5.0),
            PricePoint::new(2.0, 1.0),
            PricePoint::new(3.0, 9.0),
        ];
        let grid: Vec<f64> = pts.iter().map(|p| p.a).collect();
        let targets: Vec<f64> = pts.iter().map(|p| p.target).collect();
        let via_projection = solve_pi_l2(&pts);
        let obj = mbp_optim::projgrad::SquaredInterpolation {
            targets: targets.clone(),
        };
        let via_ascent = solve_separable_concave(&obj, &grid, &targets);
        for (x, y) in via_ascent
            .pricing
            .prices()
            .iter()
            .zip(via_projection.pricing.prices())
        {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn mbp_dominates_baselines_on_figure5() {
        let pts = figure5_points();
        let dp = solve_bv_dp(&pts);
        for b in Baseline::ALL {
            let rb = revenue(&b.pricing(&pts), &pts);
            assert!(
                dp.objective >= rb - 1e-9,
                "{} beat DP: {rb} > {}",
                b.name(),
                dp.objective
            );
        }
    }

    /// The single-pass, chunked welfare agrees with the individual
    /// metrics on a population of several chunks, the last one partial.
    #[test]
    fn welfare_agrees_with_the_individual_metrics() {
        let n = 3 * EVAL_GRAIN + 17;
        let pts: Vec<BuyerPoint> = (0..n)
            .map(|j| {
                let a = 1.0 + 9.0 * (j as f64 / n as f64);
                let v = 50.0 + 40.0 * ((j as f64) * 0.37).sin().abs() * a;
                BuyerPoint::new(a, v, 1.0 / n as f64)
            })
            .collect();
        let pf = Baseline::Lin.pricing(&pts);
        let w = welfare(&pf, &pts);
        assert!((w.revenue - revenue(&pf, &pts)).abs() < 1e-9);
        assert!((w.buyer_surplus - buyer_surplus(&pf, &pts)).abs() < 1e-9);
        assert!((w.affordability - affordability(&pf, &pts)).abs() < 1e-9);
    }
}
