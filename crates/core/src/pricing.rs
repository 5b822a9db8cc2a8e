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
//! [`PricingFunction`] stores the grid and implements that evaluation. The
//! constructor validates only basic sanity (ascending grid, finite
//! non-negative prices) — deliberately, so that *broken* pricing functions
//! can be represented and handed to the [`arbitrage`](crate::arbitrage)
//! auditors, as in Figure 3's illustration.

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
        }
    }
}

impl std::error::Error for PricingError {}

/// A piecewise-linear pricing function `p̄(x)` over the inverse-NCP axis
/// (Proposition 1 construction).
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
        Ok(PricingFunction { grid, prices })
    }

    /// A constant pricing function `p̄ ≡ c` represented on a trivial grid.
    pub fn constant(c: f64) -> Self {
        assert!(c >= 0.0 && c.is_finite(), "constant price must be >= 0");
        PricingFunction {
            grid: vec![1.0],
            prices: vec![c],
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
    /// Out-of-domain queries clamp deterministically instead of panicking
    /// or falling through the segment scan:
    ///
    /// * `x` at or below the first grid point follows the origin ray;
    /// * `x` at or above the last grid point returns the saturation price;
    /// * negative `x` and `NaN` clamp to precision `0` (price `0`);
    /// * `+∞` returns [`Self::max_price`] (the tail is constant).
    pub fn price_at(&self, x: f64) -> f64 {
        // Non-positive precisions and NaN all clamp to price zero.
        if x.is_nan() || x <= 0.0 {
            return 0.0;
        }
        let (Some(&x_first), Some(&y_first)) = (self.grid.first(), self.prices.first()) else {
            return 0.0;
        };
        let (Some(&x_last), Some(&y_last)) = (self.grid.last(), self.prices.last()) else {
            return 0.0;
        };
        // Constant-price special case: grid carries no slope information.
        if self.grid.len() == 1 {
            return y_first;
        }
        if x <= x_first {
            return y_first * x / x_first;
        }
        if x >= x_last {
            return y_last;
        }
        // Interior: partition_point lands in [1, n-1] because x is strictly
        // between the endpoints; the fallbacks are unreachable for the
        // validated equal-length vectors.
        let idx = self.grid.partition_point(|&g| g <= x);
        let i0 = idx.wrapping_sub(1);
        let (Some(&x0), Some(&x1)) = (self.grid.get(i0), self.grid.get(idx)) else {
            return y_last;
        };
        let (Some(&y0), Some(&y1)) = (self.prices.get(i0), self.prices.get(idx)) else {
            return y_last;
        };
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Price of the model released with noise control parameter `δ > 0`:
    /// `p(δ) = p̄(1/δ)`. `δ = +∞` is accepted and prices at `p̄(0) = 0`
    /// (infinitely noisy releases are free).
    ///
    /// # Panics
    /// Panics for `δ ≤ 0` or `NaN` (a zero-noise release has unbounded
    /// precision; its price is the curve's saturation value, use
    /// [`Self::max_price`]).
    pub fn price_for_ncp(&self, delta: f64) -> f64 {
        assert!(delta > 0.0, "NCP must be > 0, got {delta}");
        self.price_at(1.0 / delta)
    }

    /// The saturation price `lim_{x→∞} p̄(x) = z_n`.
    pub fn max_price(&self) -> f64 {
        // Construction guarantees non-empty; a degenerate empty curve would
        // price everything at 0 rather than panic the serve path.
        self.prices.last().copied().unwrap_or(0.0)
    }

    /// Largest precision purchasable with budget `b`, or `None` when even
    /// the cheapest positive-precision point exceeds the budget.
    ///
    /// Because `p̄` is monotone, this is a scan over segments; within the
    /// saturated tail any precision is affordable, so the function returns
    /// `f64::INFINITY` when `b ≥ max_price()`.
    ///
    /// Edge cases clamp deterministically: a negative or `NaN` budget buys
    /// nothing (`None`), and `b = +∞` affords unbounded precision
    /// (`Some(∞)`, via the `b ≥ max_price()` branch).
    pub fn max_precision_for_budget(&self, b: f64) -> Option<f64> {
        if b.is_nan() || b < 0.0 {
            return None;
        }
        if b >= self.max_price() {
            return Some(f64::INFINITY);
        }
        let (Some(&x_first), Some(&y_first)) = (self.grid.first(), self.prices.first()) else {
            return None;
        };
        // Initial ray.
        if b < y_first {
            if self.grid.len() == 1 {
                // Constant curve: any precision costs prices[0] > b.
                return None;
            }
            if y_first <= 0.0 {
                return None;
            }
            let x = x_first * b / y_first;
            return (x > 0.0).then_some(x);
        }
        // Walk segments; price is monotone so find the last affordable x.
        let mut best = x_first;
        let pairs = self
            .grid
            .iter()
            .zip(self.grid.iter().skip(1))
            .zip(self.prices.iter().zip(self.prices.iter().skip(1)));
        for ((&x0, &x1), (&y0, &y1)) in pairs {
            if b >= y1 {
                best = x1;
                continue;
            }
            if b >= y0 && y1 > y0 {
                let t = (b - y0) / (y1 - y0);
                best = x0 + t * (x1 - x0);
            }
            break;
        }
        Some(best)
    }

    /// Lowers this function into a compiled [`PricingTable`] for the
    /// quote-serving fast path.
    pub fn compile(&self) -> PricingTable {
        PricingTable::from_function(self)
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

/// A compiled, flat sorted-segment form of a [`PricingFunction`] for the
/// quote-serving fast path.
///
/// At publish time the piecewise-linear curve is lowered into parallel
/// arrays of knots, knot prices, and *precomputed per-segment slopes*, and
/// the knot array is indexed by a [`SegmentIndex`] (a branchless fixed-
/// stride grid when the knots are near-uniform, `partition_point`
/// otherwise), so [`PricingTable::price_at`] is one segment lookup plus
/// one fused multiply-add — no allocation and no division. The segment
/// scan in
/// [`PricingFunction::max_precision_for_budget`] is likewise replaced by an
/// indexed lookup over the knot prices whenever they are non-decreasing
/// (always the case for arbitrage-free curves; non-monotone "broken"
/// curves fall back to the exact scan semantics).
///
/// Debug builds cross-check every table answer against the original
/// function to `1e-12` (relative), so any drift between the compiled and
/// scan representations fails loudly in tests.
#[derive(Debug, Clone)]
pub struct PricingTable {
    knots: Vec<f64>,
    prices: Vec<f64>,
    /// `slopes[i] = (prices[i+1] − prices[i]) / (knots[i+1] − knots[i])`;
    /// empty for a single-knot (constant) curve.
    slopes: Vec<f64>,
    /// Slope of the origin ray `prices[0] / knots[0]`.
    ray_slope: f64,
    /// First knot (`knots[0]`), cached so the hot path needs no bounds
    /// checks on the ray branch.
    knot_min: f64,
    /// Last knot (`knots[n-1]`), ditto for the saturation branch.
    knot_max: f64,
    max_price: f64,
    /// Segment lookup over `knots` (grid or `partition_point`, chosen at
    /// compile time).
    knot_index: SegmentIndex,
    /// Segment lookup over `prices`, present exactly when the knot
    /// prices are non-decreasing (monotone curves admit indexed budget
    /// inversion; broken curves fall back to the scan).
    price_index: Option<SegmentIndex>,
    #[cfg(debug_assertions)]
    source: PricingFunction,
}

impl PricingTable {
    /// Compiles `f` into its flat segment representation.
    pub fn from_function(f: &PricingFunction) -> Self {
        let _span = mbp_obs::span("mbp.core.pricing.table_build");
        mbp_obs::inc("mbp.core.pricing.table_build.count");
        let knots = f.grid().to_vec();
        let prices = f.prices().to_vec();
        let slopes: Vec<f64> = knots
            .iter()
            .zip(knots.iter().skip(1))
            .zip(prices.iter().zip(prices.iter().skip(1)))
            .map(|((x0, x1), (y0, y1))| (y1 - y0) / (x1 - x0))
            .collect();
        // The source function is validated non-empty; the degenerate
        // fallbacks keep compilation infallible regardless.
        let knot_min = knots.first().copied().unwrap_or(1.0);
        let knot_max = knots.last().copied().unwrap_or(1.0);
        let first_price = prices.first().copied().unwrap_or(0.0);
        let monotone = prices
            .iter()
            .zip(prices.iter().skip(1))
            .all(|(a, b)| a <= b);
        PricingTable {
            ray_slope: first_price / knot_min,
            knot_min,
            knot_max,
            max_price: prices.last().copied().unwrap_or(0.0),
            knot_index: SegmentIndex::new(&knots),
            price_index: monotone.then(|| SegmentIndex::new(&prices)),
            slopes,
            knots,
            prices,
            #[cfg(debug_assertions)]
            source: f.clone(),
        }
    }

    /// The knot positions (the source grid).
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// The saturation price `z_n`.
    pub fn max_price(&self) -> f64 {
        self.max_price
    }

    /// Index of the last knot `≤ x`, answered by the compiled
    /// [`SegmentIndex`] (grid arithmetic or `partition_point`). Interior
    /// callers guarantee `x > knot_min`, so the upper bound is ≥ 1 and the
    /// subtraction cannot wrap.
    #[inline]
    fn segment_index(&self, x: f64) -> usize {
        self.knot_index
            .upper_bound(&self.knots, x)
            .saturating_sub(1)
    }

    /// Table evaluation of `p̄(x)` with the same clamp semantics as
    /// [`PricingFunction::price_at`].
    #[inline]
    pub fn price_at(&self, x: f64) -> f64 {
        let p = self.price_at_inner(x);
        #[cfg(debug_assertions)]
        {
            let direct = self.source.price_at(x);
            debug_assert!(
                (p - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                "compiled table diverged from source at x={x}: {p} vs {direct}"
            );
        }
        p
    }

    #[inline]
    fn price_at_inner(&self, x: f64) -> f64 {
        // NaN and non-positive precisions clamp to price 0.
        if x.is_nan() || x <= 0.0 {
            return 0.0;
        }
        // For a single knot prices[0] == max_price exactly.
        if self.knots.len() == 1 {
            return self.max_price;
        }
        if x >= self.knot_max {
            return self.max_price;
        }
        if x <= self.knot_min {
            return self.ray_slope * x;
        }
        // segment_index returns i < n-1 for interior x; the fallback is
        // unreachable for the equal-length compiled vectors.
        let i = self.segment_index(x);
        let (Some(&y0), Some(&m), Some(&k0)) =
            (self.prices.get(i), self.slopes.get(i), self.knots.get(i))
        else {
            return self.max_price;
        };
        y0 + m * (x - k0)
    }

    /// Table evaluation of `p(δ) = p̄(1/δ)`.
    ///
    /// # Panics
    /// Panics for `δ ≤ 0` or `NaN`, like [`PricingFunction::price_for_ncp`].
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

    /// Budget inversion with the same semantics as
    /// [`PricingFunction::max_precision_for_budget`], answered by binary
    /// search on monotone curves.
    pub fn max_precision_for_budget(&self, b: f64) -> Option<f64> {
        let x = self.max_precision_for_budget_inner(b);
        #[cfg(debug_assertions)]
        {
            let direct = self.source.max_precision_for_budget(b);
            debug_assert!(
                match (x, direct) {
                    (None, None) => true,
                    (Some(a), Some(d)) => a == d || (a - d).abs() <= 1e-12 * d.abs().max(1.0),
                    _ => false,
                },
                "compiled budget inversion diverged at b={b}: {x:?} vs {direct:?}"
            );
        }
        x
    }

    fn max_precision_for_budget_inner(&self, b: f64) -> Option<f64> {
        if b.is_nan() || b < 0.0 {
            return None;
        }
        if b >= self.max_price {
            return Some(f64::INFINITY);
        }
        let n = self.knots.len();
        let first_price = self.prices.first().copied().unwrap_or(0.0);
        if b < first_price {
            if n == 1 || first_price <= 0.0 {
                return None;
            }
            let x = self.knot_min * b / first_price;
            return (x > 0.0).then_some(x);
        }
        if let Some(price_index) = &self.price_index {
            // Prices are non-decreasing: the last affordable knot is found
            // by the index, then extended into the next segment. This
            // reproduces the scan bit-for-bit: the index answers the exact
            // `partition_point(|&p| p <= b)` (exact ±1 fix-ups in the grid
            // path) and the interpolation arithmetic is
            // unchanged. The bound lands in [1, n) because b sits in
            // [prices[0], max_price); the fallbacks are unreachable.
            let idx = price_index.upper_bound(&self.prices, b);
            debug_assert!(idx >= 1 && idx < n, "b in [prices[0], max_price)");
            let i0 = idx.wrapping_sub(1);
            let (Some(&y0), Some(&y1)) = (self.prices.get(i0), self.prices.get(idx)) else {
                return Some(self.knot_max);
            };
            let (Some(&k0), Some(&k1)) = (self.knots.get(i0), self.knots.get(idx)) else {
                return Some(self.knot_max);
            };
            let mut best = k0;
            if b >= y0 && y1 > y0 {
                let t = (b - y0) / (y1 - y0);
                best = k0 + t * (k1 - k0);
            }
            return Some(best);
        }
        // Broken (non-monotone) curve: keep the exact scan semantics.
        let mut best = self.knot_min;
        let pairs = self
            .knots
            .iter()
            .zip(self.knots.iter().skip(1))
            .zip(self.prices.iter().zip(self.prices.iter().skip(1)));
        for ((&k0, &k1), (&y0, &y1)) in pairs {
            if b >= y1 {
                best = k1;
                continue;
            }
            if b >= y0 && y1 > y0 {
                let t = (b - y0) / (y1 - y0);
                best = k0 + t * (k1 - k0);
            }
            break;
        }
        Some(best)
    }
}

/// Memoized φ-inversion state for one transform: the numbers needed to
/// answer [`PhiMemo::ncp_for_error`] without a virtual call.
///
/// For affine transforms (`E[ε] = base + slope·δ`,
/// [`crate::error::ErrorTransform::affine_params`]) the inverse is one
/// subtract-divide; other transforms fall back to their own
/// `ncp_for_error`.
#[derive(Debug, Clone)]
pub struct PhiMemo {
    /// `(base, slope)` for affine transforms with positive slope.
    affine: Option<(f64, f64)>,
}

impl PhiMemo {
    /// Precomputes inversion state for `transform`.
    pub fn new(transform: &dyn crate::error::ErrorTransform) -> Self {
        PhiMemo {
            affine: transform.affine_params().filter(|&(_, s)| s > 0.0),
        }
    }

    /// The error-inverse `φ(err)`, using the cached affine parameters when
    /// available (bit-identical to the transform's own inversion) and the
    /// transform's virtual call otherwise.
    pub fn ncp_for_error(
        &self,
        transform: &dyn crate::error::ErrorTransform,
        err: f64,
    ) -> Option<f64> {
        match self.affine {
            Some((base, slope)) => {
                if !err.is_finite() || err < base - 1e-12 {
                    return None;
                }
                Some(((err - base) / slope).max(0.0))
            }
            None => transform.ncp_for_error(err),
        }
    }
}

/// A buyer-facing view of a pricing function in *error units* (Theorem 6):
/// composing `p̄` with the error-inverse `φ` gives the price of "expected
/// error at most ε" directly, which is how buyers think.
pub struct ErrorPricedView<'a> {
    pricing: &'a PricingFunction,
    transform: &'a dyn crate::error::ErrorTransform,
}

impl<'a> ErrorPricedView<'a> {
    /// Wraps a pricing function and an error transform.
    pub fn new(
        pricing: &'a PricingFunction,
        transform: &'a dyn crate::error::ErrorTransform,
    ) -> Self {
        ErrorPricedView { pricing, transform }
    }

    /// Price of a release with expected error `err`, or `None` when that
    /// error is unachievable for this model/dataset.
    pub fn price_for_error(&self, err: f64) -> Option<f64> {
        let ncp = self.transform.ncp_for_error(err)?;
        if ncp <= 0.0 {
            // Zero noise: the curve saturates (the grid caps precision).
            return Some(self.pricing.max_price());
        }
        Some(self.pricing.price_for_ncp(ncp))
    }

    /// Samples `(error, price)` pairs over a δ grid — the curve of
    /// Figure 2(d).
    pub fn curve(&self, ncps: &[f64]) -> Vec<(f64, f64)> {
        ncps.iter()
            .map(|&d| {
                (
                    self.transform.expected_error(d),
                    self.pricing.price_for_ncp(d),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorTransform, LinRegSquareTransform, SquareLossTransform};

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
    fn error_priced_view_identity_transform() {
        let p = pf();
        let t = SquareLossTransform;
        let view = ErrorPricedView::new(&p, &t);
        // With ε_s, error IS the NCP: error 2.0 ⇒ δ = 2 ⇒ x = 0.5 ⇒ price 5.
        assert!((view.price_for_error(2.0).unwrap() - 5.0).abs() < 1e-12);
        // Lower error costs more.
        assert!(view.price_for_error(0.5).unwrap() > view.price_for_error(2.0).unwrap());
        // Negative error is unachievable.
        assert_eq!(view.price_for_error(-1.0), None);
        // Zero error: the transform returns δ = 0, which saturates the
        // curve at its maximum price.
        assert_eq!(view.price_for_error(0.0), Some(p.max_price()));
    }

    #[test]
    fn error_priced_view_curve_is_monotone() {
        let p = pf();
        let mut rng = mbp_randx::seeded_rng(3);
        let ds = mbp_data::synth::simulated1(300, 3, 0.3, &mut rng);
        let h = mbp_ml::train::ridge_closed_form(&ds, 0.0).unwrap();
        let t = LinRegSquareTransform::new(&ds, &h);
        let view = ErrorPricedView::new(&p, &t);
        let ncps: Vec<f64> = (1..=20).map(|i| 0.1 * i as f64).collect();
        let curve = view.curve(&ncps);
        for w in curve.windows(2) {
            // Error grows with δ, price falls with δ.
            assert!(w[0].0 <= w[1].0 + 1e-12);
            assert!(w[0].1 >= w[1].1 - 1e-12);
        }
        // The view agrees with composing by hand at a probe point.
        let err = t.expected_error(0.7);
        let via_view = view.price_for_error(err).unwrap();
        assert!((via_view - p.price_for_ncp(0.7)).abs() < 1e-9);
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
        // The compiled table clamps identically.
        let t = p.compile();
        assert_eq!(t.price_at(-3.0), 0.0);
        assert_eq!(t.price_at(f64::NAN), 0.0);
        assert_eq!(t.price_at(f64::INFINITY), p.max_price());
        assert_eq!(t.max_precision_for_budget(f64::NAN), None);
        assert_eq!(
            t.max_precision_for_budget(f64::INFINITY),
            Some(f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "NCP must be > 0")]
    fn nan_ncp_price_panics() {
        pf().price_for_ncp(f64::NAN);
    }

    #[test]
    fn compiled_table_matches_scan_on_dense_probes() {
        let p = pf();
        let t = p.compile();
        for i in 0..2000 {
            let x = i as f64 * 0.004; // 0 .. 8, covering ray/interior/tail
            let a = t.price_at(x);
            let b = p.price_at(x);
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "x={x}: {a} vs {b}"
            );
        }
        assert_eq!(t.max_price(), p.max_price());
        assert_eq!(t.price_for_ncp(0.5), p.price_for_ncp(0.5));
    }

    #[test]
    fn compiled_table_budget_inversion_matches_scan() {
        let curves = vec![
            pf(),
            PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 5.0, 9.0]).unwrap(),
            PricingFunction::constant(7.0),
            // A broken (non-monotone) curve exercises the scan fallback.
            PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 3.0, 9.0]).unwrap(),
        ];
        for p in curves {
            let t = p.compile();
            for i in 0..300 {
                let b = i as f64 * 0.05;
                assert_eq!(
                    t.max_precision_for_budget(b),
                    p.max_precision_for_budget(b),
                    "budget {b} diverged"
                );
            }
        }
    }

    #[test]
    fn constant_curve_table_matches() {
        let p = PricingFunction::constant(7.0);
        let t = p.compile();
        assert_eq!(t.price_at(0.0), 0.0);
        assert_eq!(t.price_at(0.5), 7.0);
        assert_eq!(t.price_at(50.0), 7.0);
        assert_eq!(t.max_precision_for_budget(3.0), None);
        assert_eq!(t.max_precision_for_budget(7.0), Some(f64::INFINITY));
    }

    #[test]
    fn phi_memo_inverts_bit_for_bit() {
        let mut rng = mbp_randx::seeded_rng(5);
        let ds = mbp_data::synth::simulated1(300, 3, 0.3, &mut rng);
        let h = mbp_ml::train::ridge_closed_form(&ds, 0.0).unwrap();
        // LinReg is affine in δ (the cached fast path); the identity
        // transform has no affine_params and takes the virtual call.
        let affine = LinRegSquareTransform::new(&ds, &h);
        assert!(
            affine.affine_params().is_some(),
            "LinReg transform is affine in δ"
        );
        let transforms: [&dyn ErrorTransform; 2] = [&affine, &SquareLossTransform];
        for t in transforms {
            let memo = PhiMemo::new(t);
            // Probe across unachievable, interior and tail errors, plus the
            // non-finite ones the guard rejects.
            let probes = (0..500)
                .map(|i| affine.base() * 0.5 + i as f64 * 0.01)
                .chain([-1.0, 0.0, f64::INFINITY, f64::NAN]);
            for err in probes {
                assert_eq!(
                    memo.ncp_for_error(t, err).map(f64::to_bits),
                    t.ncp_for_error(err).map(f64::to_bits),
                    "{}: err={err}",
                    t.name()
                );
            }
        }
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
