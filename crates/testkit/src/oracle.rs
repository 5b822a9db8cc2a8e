//! Differential pricing oracles.
//!
//! Every quote in the marketplace is priced by [`PricingFunction`] itself
//! (what the broker charges), directly on the precision axis or, in error
//! units (Theorem 6's `p̄∘φ`), after the broker's
//! [`resolve_ncp`](mbp_core::market::resolve_ncp) turns an error budget
//! into an NCP ([`sold_price`]). Both are checked against the
//! high-precision [`ReferenceCurve`] defined here. The differential
//! harness drives them over the same probe set (structured boundary
//! probes plus seeded random probes) and fails on any divergence above
//! `1e-12` relative, so the one arithmetic the market sells by stays
//! within rounding of the exact Proposition 1 curve.

use crate::attack::sold_price;
use mbp_core::error::ErrorTransform;
use mbp_core::market::PurchaseRequest;
use mbp_core::pricing::PricingFunction;
use rand::Rng;

/// Relative divergence tolerance between evaluators.
pub const ORACLE_TOL: f64 = 1e-12;

/// Compensated (Kahan–Neumaier) accumulator: the running error of every
/// add is carried in a second `f64`, so sums of a handful of terms are
/// exact to well below an ulp of the result.
#[derive(Debug, Clone, Copy, Default)]
struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn value(self) -> f64 {
        self.sum + self.comp
    }
}

/// Splits `a * b` into a rounded product and its exact residual using a
/// fused multiply-add, so products feed the compensated sum exactly.
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    (p, a.mul_add(b, -p))
}

/// A high-precision reference evaluator for the Proposition 1 curve.
///
/// Same clamp semantics as [`PricingFunction::price_at`], but the
/// interpolation is evaluated in the symmetric barycentric form
/// `(y0·(x1−x) + y1·(x−x0)) / (x1−x0)` with `f64`-widened products
/// (`two_prod`) Kahan-summed before the single final division. The
/// production evaluators must agree with it to [`ORACLE_TOL`] relative.
#[derive(Debug, Clone)]
pub struct ReferenceCurve {
    grid: Vec<f64>,
    prices: Vec<f64>,
}

impl ReferenceCurve {
    /// Builds the reference from the same points as the production curve.
    pub fn new(f: &PricingFunction) -> Self {
        ReferenceCurve {
            grid: f.grid().to_vec(),
            prices: f.prices().to_vec(),
        }
    }

    /// Widened linear interpolation between `(x0, y0)` and `(x1, y1)`.
    fn lerp(x0: f64, x1: f64, y0: f64, y1: f64, x: f64) -> f64 {
        let mut acc = Kahan::default();
        let (p0, e0) = two_prod(y0, x1 - x);
        let (p1, e1) = two_prod(y1, x - x0);
        acc.add(p0);
        acc.add(e0);
        acc.add(p1);
        acc.add(e1);
        acc.value() / (x1 - x0)
    }

    /// Reference `p̄(x)` (clamp semantics of [`PricingFunction::price_at`]).
    pub fn price_at(&self, x: f64) -> f64 {
        if x.is_nan() || x <= 0.0 {
            return 0.0;
        }
        let n = self.grid.len();
        if n == 1 {
            return self.prices[0];
        }
        if x <= self.grid[0] {
            return Self::lerp(0.0, self.grid[0], 0.0, self.prices[0], x);
        }
        if x >= self.grid[n - 1] {
            return self.prices[n - 1];
        }
        let idx = self.grid.partition_point(|&g| g <= x);
        Self::lerp(
            self.grid[idx - 1],
            self.grid[idx],
            self.prices[idx - 1],
            self.prices[idx],
            x,
        )
    }

    /// Reference budget inversion (clamp semantics of
    /// [`PricingFunction::max_precision_for_budget`]), by a segment scan.
    pub fn max_precision_for_budget(&self, b: f64) -> Option<f64> {
        if b.is_nan() || b < 0.0 {
            return None;
        }
        let n = self.grid.len();
        if b >= self.prices[n - 1] {
            return Some(f64::INFINITY);
        }
        if b < self.prices[0] {
            if n == 1 || self.prices[0] <= 0.0 {
                return None;
            }
            let x = Self::lerp(0.0, self.prices[0], 0.0, self.grid[0], b);
            return (x > 0.0).then_some(x);
        }
        let mut best = self.grid[0];
        for i in 0..n - 1 {
            let (y0, y1) = (self.prices[i], self.prices[i + 1]);
            if b >= y1 {
                best = self.grid[i + 1];
                continue;
            }
            if b >= y0 && y1 > y0 {
                best = Self::lerp(y0, y1, self.grid[i], self.grid[i + 1], b);
            }
            break;
        }
        Some(best)
    }
}

/// Configuration of a differential run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Seed for the random probe stream.
    pub seed: u64,
    /// Number of random probes (structured boundary probes are always
    /// added on top).
    pub probes: usize,
    /// Relative divergence tolerance (default [`ORACLE_TOL`]).
    pub tol: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seed: 0x6d62_7000,
            probes: 2_000,
            tol: ORACLE_TOL,
        }
    }
}

/// Outcome of a differential run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Total evaluator comparisons performed.
    pub comparisons: u64,
    /// Largest relative divergence observed among agreeing paths.
    pub max_divergence: f64,
    /// Human-readable divergence descriptions (empty when all paths agree).
    pub divergences: Vec<String>,
}

impl OracleReport {
    /// `true` when every evaluator pair agreed within tolerance.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0.0;
    }
    (a - b).abs() / b.abs().max(1.0)
}

/// Structured probes every differential run includes: the knots, segment
/// midpoints, the origin ray, the saturated tail, and the documented
/// out-of-domain clamp inputs.
fn structured_probes(f: &PricingFunction) -> Vec<f64> {
    let g = f.grid();
    let mut probes = vec![
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        g[0] * 0.5,
        g[0],
        *g.last().expect("non-empty"),
        g.last().expect("non-empty") * 4.0,
    ];
    for w in g.windows(2) {
        probes.push(w[0]);
        probes.push(0.5 * (w[0] + w[1]));
    }
    probes
}

/// Drives `p̄(x)` and budget inversion through `f` and the
/// [`ReferenceCurve`] over structured plus `cfg.probes` random inputs,
/// recording any divergence above `cfg.tol`.
pub fn check_pricing(f: &PricingFunction, cfg: &OracleConfig) -> OracleReport {
    let _span = mbp_obs::span("mbp.testkit.oracle");
    let reference = ReferenceCurve::new(f);
    let x_max = *f.grid().last().expect("non-empty");
    let p_max = f.max_price();
    let mut rng = mbp_randx::seeded_rng(cfg.seed);
    let mut report = OracleReport {
        comparisons: 0,
        max_divergence: 0.0,
        divergences: Vec::new(),
    };

    let mut xs = structured_probes(f);
    let mut budgets: Vec<f64> = vec![0.0, -1.0, f64::NAN, f64::INFINITY, p_max];
    budgets.extend(f.prices().iter().copied());
    for _ in 0..cfg.probes {
        xs.push(rng.gen_range(0.0..1.5 * x_max.max(1.0)));
        budgets.push(rng.gen_range(0.0..1.2 * p_max.max(1.0)));
    }

    for &x in &xs {
        let (sold, gold) = (f.price_at(x), reference.price_at(x));
        let d = rel_diff(gold, sold);
        report.comparisons += 1;
        report.max_divergence = report.max_divergence.max(d);
        if d > cfg.tol {
            report
                .divergences
                .push(format!("price_at({x}): curve={sold} vs reference={gold}"));
        }
    }
    for &b in &budgets {
        report.comparisons += 1;
        match (f.max_precision_for_budget(b), reference.max_precision_for_budget(b)) {
            (None, None) => {}
            (Some(a), Some(v)) => {
                let d = rel_diff(v, a);
                report.max_divergence = report.max_divergence.max(d);
                if d > cfg.tol {
                    report.divergences.push(format!(
                        "max_precision_for_budget({b}): curve={a} vs reference={v}"
                    ));
                }
            }
            (a, v) => report.divergences.push(format!(
                "max_precision_for_budget({b}): achievability diverged, curve={a:?} vs reference={v:?}"
            )),
        }
    }
    report
}

/// Differential check of the φ (error-space) path: the sold price of an
/// [`PurchaseRequest::ErrorBudget`] ([`sold_price`], Theorem 6's `p̄∘φ`)
/// against the reference composition `p̄_ref(1/φ(err))`, over errors
/// spanning unachievable, saturated, interior, and tail regions. The
/// reference composes φ on its own, by the sale rule: an error whose
/// inverse is not a positive NCP is unachievable.
pub fn check_error_space(
    f: &PricingFunction,
    transform: &dyn ErrorTransform,
    cfg: &OracleConfig,
) -> OracleReport {
    let _span = mbp_obs::span("mbp.testkit.oracle");
    let reference = ReferenceCurve::new(f);
    let mut rng = mbp_randx::seeded_rng(cfg.seed ^ 0x9e37_79b9);
    let mut report = OracleReport {
        comparisons: 0,
        max_divergence: 0.0,
        divergences: Vec::new(),
    };

    // Error probes derived from the δ axis, so they track the transform's
    // achievable range: δ from well inside the saturated band out past the
    // free tail, plus negative and sub-achievable errors.
    let x_max = *f.grid().last().expect("non-empty");
    let mut errs = vec![-1.0, 0.0, transform.expected_error(0.0) * (1.0 - 1e-9)];
    for i in 0..=40 {
        errs.push(transform.expected_error(0.02 * i as f64 / x_max));
    }
    for _ in 0..cfg.probes {
        let delta = rng.gen_range(0.0..4.0 / x_max.max(1e-9));
        errs.push(transform.expected_error(delta));
    }

    for &err in &errs {
        let sold = sold_price(f, transform, PurchaseRequest::ErrorBudget(err)).ok();
        let gold = transform
            .ncp_for_error(err)
            .filter(|&ncp| ncp > 0.0)
            .map(|ncp| reference.price_at(1.0 / ncp));
        report.comparisons += 1;
        match (sold, gold) {
            (None, None) => {}
            (Some(a), Some(v)) => {
                let d = rel_diff(v, a);
                report.max_divergence = report.max_divergence.max(d);
                if d > cfg.tol {
                    report
                        .divergences
                        .push(format!("price_for_error({err}): sold={a} vs reference={v}"));
                }
            }
            (a, v) => report.divergences.push(format!(
                "price_for_error({err}): achievability diverged, sold={a:?} vs reference={v:?}"
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::error::SquareLossTransform;

    fn pf() -> PricingFunction {
        PricingFunction::from_points(vec![1.0, 2.0, 4.0], vec![10.0, 14.0, 20.0]).unwrap()
    }

    #[test]
    fn reference_matches_the_curve_on_dense_probes() {
        let curves = [
            pf(),
            PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 5.0, 9.0]).unwrap(),
            PricingFunction::constant(7.0),
            // A broken (non-monotone) curve exercises the budget scan.
            PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 3.0, 9.0]).unwrap(),
        ];
        let close = |a: f64, b: f64| (a - b).abs() <= ORACLE_TOL * b.abs().max(1.0);
        for p in &curves {
            let r = ReferenceCurve::new(p);
            for i in 0..4000 {
                let x = i as f64 * 0.002;
                let (a, b) = (r.price_at(x), p.price_at(x));
                assert!(close(a, b), "x={x}: {a} vs {b}");
            }
            for i in 0..300 {
                let b = i as f64 * 0.05;
                match (r.max_precision_for_budget(b), p.max_precision_for_budget(b)) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert!(x == y || close(x, y), "budget {b}: {x} vs {y}"),
                    (x, y) => panic!("budget {b}: achievability diverged, {x:?} vs {y:?}"),
                }
            }
        }
        let (p, r) = (pf(), ReferenceCurve::new(&pf()));
        assert_eq!(r.price_at(f64::INFINITY), p.max_price());
        assert_eq!(r.price_at(-1.0), 0.0);
        assert_eq!(r.max_precision_for_budget(25.0), Some(f64::INFINITY));
        assert_eq!(r.max_precision_for_budget(-1.0), None);
    }

    #[test]
    fn kahan_beats_naive_on_adversarial_sum() {
        // 1 + 1e-16 repeated: naive accumulation loses every tiny term.
        let mut k = Kahan::default();
        k.add(1.0);
        for _ in 0..1000 {
            k.add(1e-16);
        }
        assert!((k.value() - (1.0 + 1000.0 * 1e-16)).abs() < 1e-16);
    }

    #[test]
    fn differential_run_is_clean_on_a_sound_curve() {
        let report = check_pricing(&pf(), &OracleConfig::default());
        assert!(report.is_clean(), "{:?}", report.divergences);
        assert!(report.comparisons > 4000);
        assert!(report.max_divergence <= ORACLE_TOL);
    }

    #[test]
    fn error_space_differential_is_clean() {
        let report = check_error_space(&pf(), &SquareLossTransform, &OracleConfig::default());
        assert!(report.is_clean(), "{:?}", report.divergences);
        assert!(report.comparisons > 2000);
    }

    #[test]
    fn oracle_flags_a_diverging_evaluator() {
        // A hand-broken "reference": perturbing one price after compilation
        // is not possible through the public API, so instead check that the
        // divergence detector itself fires on a synthetic mismatch.
        assert!(rel_diff(1.0 + 1e-9, 1.0) > ORACLE_TOL);
        assert_eq!(rel_diff(f64::NAN, f64::NAN), 0.0);
    }
}
