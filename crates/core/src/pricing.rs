//! Pricing functions over the inverse-NCP axis.
//!
//! The paper prices a released model by `p̄(x)` where `x = 1/δ` is the
//! *precision* (inverse noise). Theorem 5/6: the market is arbitrage-free
//! iff `p̄` is non-negative, monotone non-decreasing, and subadditive.
//!
//! Optimizers produce prices at finitely many grid points; Proposition 1
//! shows how to extend them to all of `R⁺` without losing the (relaxed)
//! arbitrage-free property:
//!
//! * on `[0, a₁]`: the ray `x · z₁/a₁` through the origin;
//! * on `[a_j, a_{j+1}]`: linear interpolation;
//! * on `[a_n, ∞)`: the constant `z_n`.
//!
//! [`PricingFunction`] stores the grid and implements that evaluation,
//! compiled once at construction into the form every sale is priced by:
//! there is one evaluator, so what the auditors and optimizers check is
//! exactly what the broker charges. The constructor validates only basic
//! sanity (ascending grid, finite non-negative prices, slopes that do not
//! overflow) — deliberately, so that *broken* pricing functions can be
//! represented and handed to the [`arbitrage`](crate::arbitrage) auditors,
//! as in Figure 3's illustration.
//!
//! Prices in error units (Theorem 6's `p̄∘φ`) are not a second evaluator:
//! a buyer's request resolves to an NCP through the market's one resolver,
//! [`resolve_ncp`](crate::market::resolve_ncp), and is priced here at
//! `p̄(1/δ)`.

use crate::lookup::SegmentIndex;
use std::fmt;

/// Errors from pricing-function construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PricingError {
    /// Grid and price vectors have different lengths or are empty.
    BadShape {
        /// Grid length.
        grid: usize,
        /// Price-vector length.
        prices: usize,
    },
    /// Grid is not strictly ascending and positive.
    BadGrid,
    /// A price is negative or non-finite.
    BadPrice {
        /// Index of the offending price.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The segment ending at knot `index` (the origin ray for `0`) is so
    /// steep for its step that its slope overflows `f64`, so prices on it
    /// would be `∞` or `NaN`.
    SlopeOverflow {
        /// Index of the knot that ends the offending segment.
        index: usize,
    },
}

impl fmt::Display for PricingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PricingError::BadShape { grid, prices } => {
                write!(f, "grid has {grid} points but prices has {prices} (both must be equal and nonzero)")
            }
            PricingError::BadGrid => write!(f, "grid must be strictly ascending and positive"),
            PricingError::BadPrice { index, value } => {
                write!(f, "price {index} is invalid: {value}")
            }
            PricingError::SlopeOverflow { index } => {
                write!(
                    f,
                    "the segment ending at knot {index} is too steep to price in f64"
                )
            }
        }
    }
}

impl std::error::Error for PricingError {}

/// A piecewise-linear pricing function `p̄(x)` over the inverse-NCP axis
/// (Proposition 1 construction).
///
/// Construction compiles the curve once: beside the knots and prices it
/// keeps the per-segment slopes, the origin-ray slope, and a
/// [`SegmentIndex`] over the knots (a fixed-stride grid when they are
/// near-uniform, `partition_point` otherwise), so [`Self::price_at`] is
/// one segment lookup plus one multiply-add, with no allocation and no
/// division. Every caller — the broker's sales and quotes, the auditors,
/// the optimizers and `welfare` — evaluates this one arithmetic.
///
/// ```
/// use mbp_core::pricing::PricingFunction;
///
/// // Prices at precisions 1, 2, 4 — concave, hence arbitrage-free.
/// let p = PricingFunction::from_points(vec![1.0, 2.0, 4.0], vec![10.0, 14.0, 20.0]).unwrap();
/// assert_eq!(p.price_at(2.0), 14.0);          // knot
/// assert_eq!(p.price_at(3.0), 17.0);          // linear interpolation
/// assert_eq!(p.price_at(100.0), 20.0);        // saturates past the grid
/// assert_eq!(p.price_for_ncp(0.5), p.price_at(2.0)); // price of noise δ = 1/2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PricingFunction {
    grid: Vec<f64>,
    prices: Vec<f64>,
    /// `slopes[i] = (prices[i+1] − prices[i]) / (grid[i+1] − grid[i])`;
    /// empty for a single-knot (constant) curve.
    slopes: Vec<f64>,
    /// Slope of the origin ray `prices[0] / grid[0]`.
    ray_slope: f64,
    /// First and last knot and the saturation price, cached so the ray
    /// and tail branches need no bounds checks.
    knot_min: f64,
    knot_max: f64,
    max_price: f64,
    /// Segment lookup over `grid`.
    knot_index: SegmentIndex,
    /// Segment lookup over `prices`, present exactly when the prices are
    /// non-decreasing (monotone curves admit indexed budget inversion;
    /// broken curves fall back to a scan).
    price_index: Option<SegmentIndex>,
}

impl PricingFunction {
    /// Builds a pricing function through the points `(grid[j], prices[j])`.
    pub fn from_points(grid: Vec<f64>, prices: Vec<f64>) -> Result<Self, PricingError> {
        if grid.is_empty() || grid.len() != prices.len() {
            return Err(PricingError::BadShape {
                grid: grid.len(),
                prices: prices.len(),
            });
        }
        let ascending = grid.iter().zip(grid.iter().skip(1)).all(|(a, b)| a < b);
        if !(ascending && grid.iter().all(|&x| x > 0.0 && x.is_finite())) {
            return Err(PricingError::BadGrid);
        }
        for (i, &p) in prices.iter().enumerate() {
            if !(p >= 0.0 && p.is_finite()) {
                return Err(PricingError::BadPrice { index: i, value: p });
            }
        }
        let f = PricingFunction::compiled(grid, prices);
        // Finite points can still overflow a precomputed slope (a steep rise
        // over a tiny step). Along a segment the arithmetic is monotone, so
        // it stays finite on the whole segment iff it is finite at the
        // segment's right knot. A single knot never prices on its ray.
        let ray = (f.grid.len() > 1).then_some(f.ray_slope * f.knot_min);
        let steps = f
            .grid
            .iter()
            .zip(f.grid.iter().skip(1))
            .map(|(x0, x1)| x1 - x0);
        let segments = f.prices.iter().zip(&f.slopes).zip(steps);
        let mut ends = ray
            .into_iter()
            .chain(segments.map(|((y0, m), dx)| y0 + m * dx));
        if let Some(index) = ends.position(|y| !y.is_finite()) {
            return Err(PricingError::SlopeOverflow { index });
        }
        Ok(f)
    }

    /// A constant pricing function `p̄ ≡ c` represented on a trivial grid.
    pub fn constant(c: f64) -> Self {
        assert!(c >= 0.0 && c.is_finite(), "constant price must be >= 0");
        PricingFunction::compiled(vec![1.0], vec![c])
    }

    /// Builds the evaluation fields for validated points.
    fn compiled(grid: Vec<f64>, prices: Vec<f64>) -> Self {
        let _span = mbp_obs::span("mbp.core.pricing.table_build");
        mbp_obs::inc("mbp.core.pricing.table_build.count");
        let slopes = grid
            .iter()
            .zip(grid.iter().skip(1))
            .zip(prices.iter().zip(prices.iter().skip(1)))
            .map(|((x0, x1), (y0, y1))| (y1 - y0) / (x1 - x0))
            .collect();
        let monotone = prices
            .iter()
            .zip(prices.iter().skip(1))
            .all(|(a, b)| a <= b);
        // Validated points are non-empty; the fallbacks keep this total.
        let knot_min = grid.first().copied().unwrap_or(1.0);
        PricingFunction {
            ray_slope: prices.first().copied().unwrap_or(0.0) / knot_min,
            knot_min,
            knot_max: grid.last().copied().unwrap_or(1.0),
            max_price: prices.last().copied().unwrap_or(0.0),
            knot_index: SegmentIndex::new(&grid),
            price_index: monotone.then(|| SegmentIndex::new(&prices)),
            slopes,
            grid,
            prices,
        }
    }

    /// The grid points (ascending inverse-NCP values).
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// The prices at the grid points.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Evaluates `p̄(x)` for any precision `x` (Proposition 1 rules).
    ///
    /// Out-of-domain queries clamp deterministically instead of panicking:
    ///
    /// * `x` at or below the first grid point follows the origin ray;
    /// * `x` at or above the last grid point returns the saturation price;
    /// * negative `x` and `NaN` clamp to precision `0` (price `0`);
    /// * `+∞` returns [`Self::max_price`] (the tail is constant).
    #[inline]
    pub fn price_at(&self, x: f64) -> f64 {
        // NaN and non-positive precisions clamp to price 0.
        if x.is_nan() || x <= 0.0 {
            return 0.0;
        }
        // A single knot carries no slope: its price is the saturation price.
        if self.grid.len() == 1 || x >= self.knot_max {
            return self.max_price;
        }
        if x <= self.knot_min {
            return self.ray_slope * x;
        }
        // Interior x is above the first knot, so the upper bound is ≥ 1 and
        // the segment index is < n − 1; the fallback is unreachable for the
        // equal-length compiled vectors.
        let i = self.knot_index.upper_bound(&self.grid, x).saturating_sub(1);
        let (Some(&y0), Some(&m), Some(&x0)) =
            (self.prices.get(i), self.slopes.get(i), self.grid.get(i))
        else {
            return self.max_price;
        };
        y0 + m * (x - x0)
    }

    /// Price of the model released with noise control parameter `δ > 0`:
    /// `p(δ) = p̄(1/δ)`. `δ = +∞` is accepted and prices at `p̄(0) = 0`
    /// (infinitely noisy releases are free).
    ///
    /// # Panics
    /// Panics for `δ ≤ 0` or `NaN` (a zero-noise release has unbounded
    /// precision; its price is the curve's saturation value, use
    /// [`Self::max_price`]).
    #[inline]
    pub fn price_for_ncp(&self, delta: f64) -> f64 {
        assert!(delta > 0.0, "NCP must be > 0, got {delta}");
        self.price_at(1.0 / delta)
    }

    /// Batch evaluation of `p̄` over `xs`: `out[i]` is exactly
    /// `self.price_at(xs[i])`, in request order. `out` is reused across
    /// calls, so a warmed-up caller performs no heap allocation.
    ///
    /// Each request is priced on its own: binning requests by knot segment
    /// (to load each segment's constants once) measured slower than this
    /// loop at every batch size from 1 to 4096, because classifying a
    /// request already costs the segment lookup the loop does.
    pub fn price_at_batch(&self, xs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.price_at(x)));
    }

    /// The saturation price `lim_{x→∞} p̄(x) = z_n`.
    pub fn max_price(&self) -> f64 {
        self.max_price
    }

    /// Largest precision purchasable with budget `b`, or `None` when even
    /// the cheapest positive-precision point exceeds the budget.
    ///
    /// Within the saturated tail any precision is affordable, so the
    /// function returns `f64::INFINITY` when `b ≥ max_price()`. On
    /// non-decreasing prices the last affordable knot comes from the price
    /// index; a broken (non-monotone) curve scans its segments instead.
    ///
    /// Edge cases clamp deterministically: a negative or `NaN` budget buys
    /// nothing (`None`), and `b = +∞` affords unbounded precision
    /// (`Some(∞)`, via the `b ≥ max_price()` branch).
    pub fn max_precision_for_budget(&self, b: f64) -> Option<f64> {
        if b.is_nan() || b < 0.0 {
            return None;
        }
        if b >= self.max_price {
            return Some(f64::INFINITY);
        }
        let y_first = self.prices.first().copied().unwrap_or(0.0);
        // Initial ray.
        if b < y_first {
            // A constant curve prices every precision at prices[0] > b.
            if self.grid.len() == 1 || y_first <= 0.0 {
                return None;
            }
            let x = self.knot_min * b / y_first;
            return (x > 0.0).then_some(x);
        }
        // The segment holding b: found by the index on monotone prices
        // (b sits in [prices[0], max_price), so the bound lands in [1, n)),
        // by a scan for the last knot priced at most b otherwise.
        let hi = match &self.price_index {
            Some(index) => index.upper_bound(&self.prices, b),
            None => self
                .prices
                .iter()
                .skip(1)
                .position(|&y| b < y)
                .map_or(self.prices.len(), |i| i + 1),
        };
        let lo = hi.wrapping_sub(1);
        let (Some(&x0), Some(&y0)) = (self.grid.get(lo), self.prices.get(lo)) else {
            return Some(self.knot_min);
        };
        let (Some(&x1), Some(&y1)) = (self.grid.get(hi), self.prices.get(hi)) else {
            return Some(x0);
        };
        if b >= y0 && y1 > y0 {
            let t = (b - y0) / (y1 - y0);
            return Some(x0 + t * (x1 - x0));
        }
        Some(x0)
    }

    /// A copy of this curve, which is already compiled: kept only while the
    /// end-to-end benchmark's smoke test still calls it.
    #[doc(hidden)]
    #[deprecated(note = "a PricingFunction is already compiled; call its methods directly")]
    pub fn compile(&self) -> PricingFunction {
        self.clone()
    }

    /// Test-only sabotage hook: returns a copy of this curve with a
    /// deliberately non-subadditive knot appended (price quadruples while
    /// precision only doubles, so `p̄(2x) > 2·p̄(x)` at the old tail).
    /// Exists so the `mbp-testkit` attack engine can prove it detects a
    /// seeded arbitrage defect; never compiled into the library proper.
    #[cfg(test)]
    pub(crate) fn with_sabotaged_knot(&self) -> PricingFunction {
        let mut grid = self.grid.clone();
        let mut prices = self.prices.clone();
        let x_max = *grid.last().expect("validated curves are non-empty");
        let p_max = *prices.last().expect("validated curves are non-empty");
        grid.push(2.0 * x_max);
        prices.push(4.0 * p_max.max(1.0));
        PricingFunction::from_points(grid, prices).expect("sabotaged curve still has valid shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> PricingFunction {
        PricingFunction::from_points(vec![1.0, 2.0, 4.0], vec![10.0, 14.0, 20.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            PricingFunction::from_points(vec![], vec![]),
            Err(PricingError::BadShape { .. })
        ));
        assert!(matches!(
            PricingFunction::from_points(vec![2.0, 1.0], vec![1.0, 1.0]),
            Err(PricingError::BadGrid)
        ));
        assert!(matches!(
            PricingFunction::from_points(vec![1.0], vec![-2.0]),
            Err(PricingError::BadPrice { index: 0, .. })
        ));
        // Finite points whose slope overflows: (1e308 − 0) / 0.5 = ∞ would
        // price NaN at x = 1.5 and ∞ between the knots.
        assert_eq!(
            PricingFunction::from_points(vec![1.0, 1.5, 2.0], vec![0.0, 0.0, 1e308]),
            Err(PricingError::SlopeOverflow { index: 2 })
        );
        // The origin ray overflows the same way over a subnormal first knot;
        // a lone knot never prices on its ray, so it stands.
        assert_eq!(
            PricingFunction::from_points(vec![1e-310, 1.0], vec![1e300, 1e300]),
            Err(PricingError::SlopeOverflow { index: 0 })
        );
        assert!(PricingFunction::from_points(vec![1e-310], vec![1e300]).is_ok());
        // The steepest rise that still fits is kept.
        assert!(PricingFunction::from_points(vec![1.0, 2.0], vec![0.0, 1e308]).is_ok());
    }

    #[test]
    fn evaluation_follows_proposition1() {
        let p = pf();
        assert_eq!(p.price_at(0.0), 0.0);
        assert!((p.price_at(0.5) - 5.0).abs() < 1e-12); // ray to (1, 10)
        assert_eq!(p.price_at(1.0), 10.0);
        assert!((p.price_at(1.5) - 12.0).abs() < 1e-12); // interp
        assert_eq!(p.price_at(4.0), 20.0);
        assert_eq!(p.price_at(100.0), 20.0); // constant tail
    }

    #[test]
    fn ncp_view_is_reciprocal() {
        let p = pf();
        assert_eq!(p.price_for_ncp(1.0), p.price_at(1.0));
        assert_eq!(p.price_for_ncp(0.25), p.price_at(4.0));
        assert!((p.price_for_ncp(2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn constant_curve() {
        let p = PricingFunction::constant(7.0);
        assert_eq!(p.price_at(0.5), 7.0);
        assert_eq!(p.price_at(50.0), 7.0);
        assert_eq!(p.price_at(0.0), 0.0);
        assert_eq!(p.max_price(), 7.0);
    }

    #[test]
    fn budget_inversion() {
        let p = pf();
        // Budget 5 buys the ray point x = 0.5.
        assert!((p.max_precision_for_budget(5.0).unwrap() - 0.5).abs() < 1e-12);
        // Budget 12 lands mid-segment between (1,10) and (2,14): x = 1.5.
        assert!((p.max_precision_for_budget(12.0).unwrap() - 1.5).abs() < 1e-12);
        // Budget ≥ max price buys unbounded precision.
        assert_eq!(p.max_precision_for_budget(25.0), Some(f64::INFINITY));
        // Zero budget buys nothing (positive prices).
        assert_eq!(p.max_precision_for_budget(0.0), None);
    }

    #[test]
    fn budget_on_constant_curve() {
        let p = PricingFunction::constant(7.0);
        assert_eq!(p.max_precision_for_budget(3.0), None);
        assert_eq!(p.max_precision_for_budget(7.0), Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "NCP must be > 0")]
    fn zero_ncp_price_panics() {
        pf().price_for_ncp(0.0);
    }

    #[test]
    fn flat_segment_budget() {
        let p = PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 5.0, 9.0]).unwrap();
        // Budget 5 should reach the far end of the flat segment (x = 2).
        assert!((p.max_precision_for_budget(5.0).unwrap() - 2.0).abs() < 1e-12);
    }

    /// The documented clamp semantics for out-of-domain queries: negative
    /// and NaN precisions price at 0, +∞ saturates; negative/NaN budgets
    /// buy nothing, an infinite budget buys unbounded precision.
    #[test]
    fn out_of_domain_queries_clamp_deterministically() {
        let p = pf();
        assert_eq!(p.price_at(-3.0), 0.0);
        assert_eq!(p.price_at(f64::NAN), 0.0);
        assert_eq!(p.price_at(f64::INFINITY), p.max_price());
        // Infinitely noisy releases are free.
        assert_eq!(p.price_for_ncp(f64::INFINITY), 0.0);
        assert_eq!(p.max_precision_for_budget(-1.0), None);
        assert_eq!(p.max_precision_for_budget(f64::NAN), None);
        assert_eq!(
            p.max_precision_for_budget(f64::INFINITY),
            Some(f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "NCP must be > 0")]
    fn nan_ncp_price_panics() {
        pf().price_for_ncp(f64::NAN);
    }

    /// The verification layer's end-to-end smoke: a deliberately
    /// non-subadditive knot seeded behind the test-only hook must be found
    /// by the attack engine within its time budget, while the pristine
    /// curve survives the same search untouched.
    #[test]
    fn attack_engine_finds_the_sabotaged_knot_within_budget() {
        // The test harness's `PricingFunction` is a distinct compilation
        // from the one mbp-testkit links (dev-dependency cycle), so the
        // sabotaged knots cross the boundary as plain points.
        let rebuild = |f: &PricingFunction| {
            mbp_testkit::mbp_core::pricing::PricingFunction::from_points(
                f.grid().to_vec(),
                f.prices().to_vec(),
            )
            .expect("valid points round-trip")
        };
        let sabotaged = rebuild(&pf().with_sabotaged_knot());
        let start = std::time::Instant::now();
        let cfg = mbp_testkit::AttackConfig::default();
        let report = mbp_testkit::attack_curve(&sabotaged, &cfg);
        assert!(
            !report.is_clean(),
            "seeded non-subadditive knot must be exploitable"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|c| matches!(c.violation, mbp_testkit::Violation::Subadditivity { .. })),
            "the seeded defect is a subadditivity break: {:?}",
            report.violations
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "attack must find the seeded defect in under 5s"
        );
        // The pristine curve survives a quick pass of the same search.
        let clean =
            mbp_testkit::attack_curve(&rebuild(&pf()), &mbp_testkit::AttackConfig::quick(7));
        assert!(clean.is_clean(), "{:?}", clean.violations);
    }
}
