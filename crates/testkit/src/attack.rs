//! The arbitrage attack engine.
//!
//! Theorem 5: a buyer who can buy `k` model instances at precisions
//! `x_1..x_k` and combine them (inverse-variance weighting — precisions
//! add) defeats any pricing function that is not monotone and subadditive
//! on the inverse-NCP axis. The grid-quantized auditors in
//! [`mbp_core::arbitrage`] certify curves over a fixed resolution; this
//! engine is their randomized complement: it searches *off-grid* multisets
//! for
//!
//! * monotonicity violations (`x₁ < x₂` but `p̄(x₁) > p̄(x₂)`),
//! * subadditivity violations (`p̄(Σxᵢ) > Σ p̄(xᵢ)`: buying the parts and
//!   combining beats buying the whole),
//! * budget-mode round-trip exploits (the precision quoted for budget `b`
//!   re-prices above `b`, or a strictly better precision was affordable),
//! * ε-space attacks through φ (error-unit prices that reward *worse*
//!   accuracy, or overcharge against the δ-axis list price). Error
//!   budgets are priced as the broker sells them ([`sold_price`]): resolved
//!   by [`resolve_ncp`], then priced `p̄(1/δ)`.
//!
//! Every found violation is greedily shrunk (fewer parts, rounder
//! numbers) before being reported, and the whole search is reproducible
//! from its 64-bit seed.

use crate::oracle::ReferenceCurve;
use mbp_core::error::ErrorTransform;
use mbp_core::market::{resolve_ncp, MarketError, PurchaseRequest};
use mbp_core::pricing::PricingFunction;
use mbp_randx::MbpRng;
use rand::Rng;
use std::fmt;

/// Configuration of an attack run.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Master seed; the run (and any counterexample) is reproducible from
    /// this value alone.
    pub seed: u64,
    /// Number of randomized trials.
    pub trials: u64,
    /// Largest multiset size `k` tried per subadditivity probe.
    pub max_bundle: usize,
    /// Relative exploit margin below which a probe is *not* a violation
    /// (absorbs last-ulp noise in the interpolation arithmetic).
    pub tol: f64,
    /// Stop after this many (shrunk) counterexamples.
    pub max_violations: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            seed: 0xa77a_c400,
            trials: 100_000,
            max_bundle: 5,
            tol: 1e-9,
            max_violations: 8,
        }
    }
}

impl AttackConfig {
    /// A short fixed-budget run (CI smoke and unit tests).
    pub fn quick(seed: u64) -> Self {
        AttackConfig {
            seed,
            trials: 10_000,
            ..AttackConfig::default()
        }
    }
}

/// One exploitable pricing defect, with the concrete inputs that exhibit
/// it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `x_lo < x_hi` but the lower precision costs more.
    Monotonicity {
        /// Lower precision.
        x_lo: f64,
        /// Higher precision.
        x_hi: f64,
        /// Price at `x_lo`.
        p_lo: f64,
        /// Price at `x_hi`.
        p_hi: f64,
    },
    /// Buying the parts and combining them (precisions add) undercuts the
    /// list price of the whole.
    Subadditivity {
        /// The multiset of part precisions.
        parts: Vec<f64>,
        /// `p̄(Σ parts)` — the list price of the combined precision.
        whole_price: f64,
        /// `Σ p̄(partᵢ)` — what the attacker actually pays.
        parts_price: f64,
    },
    /// The precision quoted for budget `b` re-prices above `b`.
    BudgetOvercharge {
        /// The buyer's budget.
        budget: f64,
        /// Precision quoted by budget inversion.
        precision: f64,
        /// List price of that precision (exceeds the budget).
        reprice: f64,
    },
    /// A strictly better precision than the quoted one was affordable.
    BudgetUndersell {
        /// The buyer's budget.
        budget: f64,
        /// Precision quoted by budget inversion.
        quoted: f64,
        /// A higher precision that still fits the budget.
        better: f64,
        /// List price of the better precision.
        better_price: f64,
    },
    /// In error units: a strictly worse (larger) error costs more, or the
    /// φ-composed price overcharges against the δ-axis list price.
    EpsilonSpace {
        /// The lower (better) expected error.
        err_lo: f64,
        /// The higher (worse) expected error.
        err_hi: f64,
        /// Price quoted for `err_lo`.
        p_lo: f64,
        /// Price quoted for `err_hi`.
        p_hi: f64,
    },
}

impl Violation {
    /// The attacker's margin: how much cheaper the exploit is than honest
    /// purchasing.
    pub fn margin(&self) -> f64 {
        match self {
            Violation::Monotonicity { p_lo, p_hi, .. } => p_lo - p_hi,
            Violation::Subadditivity {
                whole_price,
                parts_price,
                ..
            } => whole_price - parts_price,
            Violation::BudgetOvercharge {
                budget, reprice, ..
            } => reprice - budget,
            Violation::BudgetUndersell {
                budget,
                better_price,
                ..
            } => budget - better_price,
            Violation::EpsilonSpace { p_lo, p_hi, .. } => p_hi - p_lo,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Monotonicity { x_lo, x_hi, p_lo, p_hi } => write!(
                f,
                "monotonicity: p({x_lo}) = {p_lo} > p({x_hi}) = {p_hi} although {x_lo} < {x_hi}"
            ),
            Violation::Subadditivity { parts, whole_price, parts_price } => write!(
                f,
                "subadditivity: combining {parts:?} costs {parts_price} < list price {whole_price} of the sum"
            ),
            Violation::BudgetOvercharge { budget, precision, reprice } => write!(
                f,
                "budget overcharge: budget {budget} was quoted precision {precision}, which re-prices at {reprice}"
            ),
            Violation::BudgetUndersell { budget, quoted, better, better_price } => write!(
                f,
                "budget undersell: budget {budget} was quoted {quoted} but {better} costs only {better_price}"
            ),
            Violation::EpsilonSpace { err_lo, err_hi, p_lo, p_hi } => write!(
                f,
                "epsilon-space: error {err_hi} (worse) costs {p_hi} > error {err_lo} costs {p_lo}"
            ),
        }
    }
}

/// A shrunk violation plus the trial that found it, for replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The (shrunk) violation.
    pub violation: Violation,
    /// The master seed of the run that found it.
    pub seed: u64,
    /// Zero-based trial index within that run.
    pub trial: u64,
}

/// Result of an attack run.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Trials executed.
    pub trials: u64,
    /// Individual exploit predicates evaluated.
    pub checks: u64,
    /// Shrunk counterexamples, in discovery order.
    pub violations: Vec<Counterexample>,
}

impl AttackReport {
    /// `true` when no exploit was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The exploit margin must beat `tol` *relative to the price scale* to
/// count, so last-ulp interpolation noise never reports a violation.
fn exceeds(lhs: f64, rhs: f64, tol: f64) -> bool {
    lhs > rhs + tol * lhs.abs().max(rhs.abs()).max(1.0)
}

/// Draws one precision from a domain-aware mixture: interior points, the
/// origin ray, the saturated tail, and exact/near-knot values (where
/// piecewise-linear defects live).
fn sample_precision(f: &PricingFunction, rng: &mut MbpRng) -> f64 {
    let grid = f.grid();
    let x_max = *grid.last().expect("non-empty");
    match rng.gen_range(0u32..10) {
        0 => rng.gen_range(0.0..grid[0]).max(f64::MIN_POSITIVE), // ray
        1 => rng.gen_range(x_max..3.0 * x_max),                  // tail
        2 | 3 => {
            // On or near a knot.
            let k = grid[rng.gen_range(0..grid.len())];
            if rng.gen_bool(0.5) {
                k
            } else {
                (k * (1.0 + 1e-6 * (rng.gen::<f64>() - 0.5))).max(f64::MIN_POSITIVE)
            }
        }
        _ => rng.gen_range(0.0..1.2 * x_max).max(f64::MIN_POSITIVE),
    }
}

/// Checks every exploit predicate once for a single randomized draw.
/// Returns the first violation found (unshrunk).
fn probe(
    f: &PricingFunction,
    cfg: &AttackConfig,
    rng: &mut MbpRng,
    checks: &mut u64,
) -> Option<Violation> {
    // Monotonicity.
    let a = sample_precision(f, rng);
    let b = sample_precision(f, rng);
    let (x_lo, x_hi) = if a <= b { (a, b) } else { (b, a) };
    let (p_lo, p_hi) = (f.price_at(x_lo), f.price_at(x_hi));
    *checks += 1;
    if exceeds(p_lo, p_hi, cfg.tol) {
        return Some(Violation::Monotonicity {
            x_lo,
            x_hi,
            p_lo,
            p_hi,
        });
    }

    // Subadditivity: buy the parts, combine, compare to the whole.
    let k = rng.gen_range(2..cfg.max_bundle.max(2) + 1);
    let parts: Vec<f64> = (0..k).map(|_| sample_precision(f, rng)).collect();
    let whole: f64 = parts.iter().sum();
    let whole_price = f.price_at(whole);
    let parts_price: f64 = parts.iter().map(|&x| f.price_at(x)).sum();
    *checks += 1;
    if exceeds(whole_price, parts_price, cfg.tol) {
        return Some(Violation::Subadditivity {
            parts,
            whole_price,
            parts_price,
        });
    }

    // Budget round trip.
    let budget = rng.gen_range(0.0..1.2 * f.max_price().max(1.0));
    if let Some(x) = f.max_precision_for_budget(budget) {
        if x.is_finite() {
            let reprice = f.price_at(x);
            *checks += 1;
            if exceeds(reprice, budget, cfg.tol) {
                return Some(Violation::BudgetOvercharge {
                    budget,
                    precision: x,
                    reprice,
                });
            }
            // Any strictly better precision must exceed the budget.
            let x_max = *f.grid().last().expect("non-empty");
            for _ in 0..3 {
                let better = rng.gen_range(x..(1.5 * x_max).max(x * 2.0));
                if better <= x {
                    continue;
                }
                let better_price = f.price_at(better);
                *checks += 1;
                if exceeds(budget, better_price, cfg.tol) {
                    return Some(Violation::BudgetUndersell {
                        budget,
                        quoted: x,
                        better,
                        better_price,
                    });
                }
            }
        }
    }
    None
}

/// Greedy counterexample shrinking: drop parts, then snap survivors to the
/// nearest knot or to short decimals, as long as the violation persists.
fn shrink(f: &PricingFunction, v: Violation, tol: f64) -> Violation {
    match v {
        Violation::Subadditivity { mut parts, .. } => {
            let still_violates = |parts: &[f64]| -> Option<(f64, f64)> {
                if parts.len() < 2 {
                    return None;
                }
                let whole: f64 = parts.iter().sum();
                let wp = f.price_at(whole);
                let pp: f64 = parts.iter().map(|&x| f.price_at(x)).sum();
                exceeds(wp, pp, tol).then_some((wp, pp))
            };
            // Phase 1: drop parts.
            let mut i = 0;
            while parts.len() > 2 && i < parts.len() {
                let mut candidate = parts.clone();
                candidate.remove(i);
                if still_violates(&candidate).is_some() {
                    parts = candidate;
                } else {
                    i += 1;
                }
            }
            // Phase 2: snap each part to a knot or a short decimal.
            for i in 0..parts.len() {
                let mut snaps: Vec<f64> = f.grid().to_vec();
                for digits in 0..=3 {
                    let scale = 10f64.powi(digits);
                    snaps.push((parts[i] * scale).round() / scale);
                }
                for s in snaps {
                    if s <= 0.0 || s == parts[i] {
                        continue;
                    }
                    let mut candidate = parts.clone();
                    candidate[i] = s;
                    if still_violates(&candidate).is_some() {
                        parts = candidate;
                        break;
                    }
                }
            }
            parts.sort_by(f64::total_cmp);
            let whole: f64 = parts.iter().sum();
            let whole_price = f.price_at(whole);
            let parts_price = parts.iter().map(|&x| f.price_at(x)).sum();
            Violation::Subadditivity {
                parts,
                whole_price,
                parts_price,
            }
        }
        Violation::Monotonicity {
            mut x_lo, mut x_hi, ..
        } => {
            // Pull the pair toward knots while the inversion persists.
            for s in f.grid() {
                if *s < x_hi && exceeds(f.price_at(*s), f.price_at(x_hi), tol) {
                    x_lo = *s;
                    break;
                }
            }
            for s in f.grid().iter().rev() {
                if *s > x_lo && exceeds(f.price_at(x_lo), f.price_at(*s), tol) {
                    x_hi = *s;
                    break;
                }
            }
            Violation::Monotonicity {
                x_lo,
                x_hi,
                p_lo: f.price_at(x_lo),
                p_hi: f.price_at(x_hi),
            }
        }
        other => other,
    }
}

/// Runs the attack engine against a published curve in inverse-NCP space.
///
/// Every trial draws a fresh randomized probe (pair, multiset, budget) and
/// evaluates all exploit predicates; found violations are shrunk before
/// being recorded. The run is fully determined by `cfg.seed`.
pub fn attack_curve(f: &PricingFunction, cfg: &AttackConfig) -> AttackReport {
    let _span = mbp_obs::span("mbp.testkit.attack");
    let mut rng = mbp_randx::seeded_rng(cfg.seed);
    let mut report = AttackReport {
        trials: 0,
        checks: 0,
        violations: Vec::new(),
    };
    for trial in 0..cfg.trials {
        report.trials += 1;
        if let Some(v) = probe(f, cfg, &mut rng, &mut report.checks) {
            mbp_obs::inc("mbp.testkit.attack.violations");
            let shrunk = shrink(f, v, cfg.tol);
            report.violations.push(Counterexample {
                violation: shrunk,
                seed: cfg.seed,
                trial,
            });
            if report.violations.len() >= cfg.max_violations {
                break;
            }
        }
    }
    mbp_obs::counter_add("mbp.testkit.attack.trials", report.trials);
    report
}

/// The price a listing of `f` under `transform` sells `request` at: the
/// broker's own [`resolve_ncp`], then `p̄(1/δ)` by the kernel's arithmetic.
///
/// # Errors
/// The rejection [`resolve_ncp`] returns for `request`.
pub fn sold_price(
    f: &PricingFunction,
    transform: &dyn ErrorTransform,
    request: PurchaseRequest,
) -> Result<f64, MarketError> {
    resolve_ncp(f, transform, request).map(|ncp| f.price_at(1.0 / ncp))
}

/// Runs the ε-space attack through φ: prices in error units must never
/// reward a worse error, and the φ-composed price of `E[ε(δ)]` must never
/// exceed the δ-axis list price (overcharge). Each error is priced as an
/// [`PurchaseRequest::ErrorBudget`] is sold ([`sold_price`]); an
/// unachievable one has no price to compare.
pub fn attack_error_space(
    f: &PricingFunction,
    transform: &dyn ErrorTransform,
    cfg: &AttackConfig,
) -> AttackReport {
    let _span = mbp_obs::span("mbp.testkit.attack");
    let price_for_error = |err| sold_price(f, transform, PurchaseRequest::ErrorBudget(err)).ok();
    let reference = ReferenceCurve::new(f);
    let x_max = *f.grid().last().expect("non-empty");
    let mut rng = mbp_randx::seeded_rng(cfg.seed ^ 0x5eed);
    let mut report = AttackReport {
        trials: 0,
        checks: 0,
        violations: Vec::new(),
    };
    for trial in 0..cfg.trials {
        report.trials += 1;
        // Two achievable errors via the forward transform.
        let d1 = rng.gen_range(1e-3 / x_max..4.0 / x_max);
        let d2 = rng.gen_range(1e-3 / x_max..4.0 / x_max);
        let (e1, e2) = (transform.expected_error(d1), transform.expected_error(d2));
        let (err_lo, err_hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let (p_lo, p_hi) = (price_for_error(err_lo), price_for_error(err_hi));
        report.checks += 1;
        if let (Some(lo), Some(hi)) = (p_lo, p_hi) {
            // Worse error must not cost more.
            if exceeds(hi, lo, cfg.tol) {
                report.violations.push(Counterexample {
                    violation: Violation::EpsilonSpace {
                        err_lo,
                        err_hi,
                        p_lo: lo,
                        p_hi: hi,
                    },
                    seed: cfg.seed,
                    trial,
                });
                if report.violations.len() >= cfg.max_violations {
                    break;
                }
                continue;
            }
        }
        // Round trip: quoting E[ε(δ)] must not overcharge vs the list
        // price p̄(1/δ). (Undercutting is legitimate: PAVA-pooled
        // transforms resolve flat error stretches buyer-optimally.)
        let list = reference.price_at(1.0 / d1);
        report.checks += 1;
        if let Some(through_phi) = price_for_error(e1) {
            if exceeds(through_phi, list, cfg.tol.max(1e-9)) {
                report.violations.push(Counterexample {
                    violation: Violation::EpsilonSpace {
                        err_lo: e1,
                        err_hi: e1,
                        p_lo: list,
                        p_hi: through_phi,
                    },
                    seed: cfg.seed,
                    trial,
                });
                if report.violations.len() >= cfg.max_violations {
                    break;
                }
            }
        }
    }
    mbp_obs::counter_add("mbp.testkit.attack.trials", report.trials);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::error::SquareLossTransform;

    fn sound() -> PricingFunction {
        // Concave through the origin: monotone + subadditive.
        let grid: Vec<f64> = (1..=12).map(|i| i as f64 * 0.75).collect();
        let prices: Vec<f64> = grid.iter().map(|x| 6.0 * x.sqrt()).collect();
        PricingFunction::from_points(grid, prices).unwrap()
    }

    fn superadditive() -> PricingFunction {
        // Convex (superlinear) prices: buying parts beats the whole.
        PricingFunction::from_points(vec![1.0, 2.0, 4.0], vec![1.0, 4.0, 16.0]).unwrap()
    }

    fn non_monotone() -> PricingFunction {
        PricingFunction::from_points(vec![1.0, 2.0, 3.0], vec![5.0, 3.0, 9.0]).unwrap()
    }

    #[test]
    fn sound_curve_survives_many_trials() {
        let report = attack_curve(&sound(), &AttackConfig::quick(7));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.trials, 10_000);
        assert!(report.checks > 20_000);
    }

    #[test]
    fn superadditive_curve_is_broken_fast() {
        let report = attack_curve(&superadditive(), &AttackConfig::quick(7));
        assert!(!report.is_clean());
        let ce = &report.violations[0];
        assert!(
            matches!(ce.violation, Violation::Subadditivity { .. }),
            "{:?}",
            ce.violation
        );
        assert!(ce.violation.margin() > 0.0);
        // Found essentially immediately.
        assert!(ce.trial < 100, "took {} trials", ce.trial);
    }

    #[test]
    fn non_monotone_curve_is_caught_and_shrunk_to_knots() {
        let report = attack_curve(&non_monotone(), &AttackConfig::quick(11));
        let mono = report
            .violations
            .iter()
            .find_map(|c| match &c.violation {
                Violation::Monotonicity { x_lo, x_hi, .. } => Some((*x_lo, *x_hi)),
                _ => None,
            })
            .expect("monotonicity violation found");
        // Shrinking snaps the witness pair onto the defective knots.
        assert_eq!(mono, (1.0, 2.0));
    }

    #[test]
    fn attack_runs_are_deterministic_in_the_seed() {
        let f = superadditive();
        let a = attack_curve(&f, &AttackConfig::quick(42));
        let b = attack_curve(&f, &AttackConfig::quick(42));
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.violations.len(), b.violations.len());
        for (x, y) in a.violations.iter().zip(&b.violations) {
            assert_eq!(x.violation, y.violation);
            assert_eq!(x.trial, y.trial);
        }
    }

    #[test]
    fn shrunk_subadditive_counterexample_is_minimal() {
        let f = superadditive();
        let report = attack_curve(&f, &AttackConfig::quick(3));
        let parts = report
            .violations
            .iter()
            .find_map(|c| match &c.violation {
                Violation::Subadditivity { parts, .. } => Some(parts.clone()),
                _ => None,
            })
            .expect("subadditivity violation found");
        assert_eq!(
            parts.len(),
            2,
            "greedy shrink should reach a pair: {parts:?}"
        );
        // The shrunk witness still violates.
        let whole: f64 = parts.iter().sum();
        let pp: f64 = parts.iter().map(|&x| f.price_at(x)).sum();
        assert!(f.price_at(whole) > pp);
    }

    #[test]
    fn error_space_attack_is_clean_on_identity_transform() {
        let report = attack_error_space(&sound(), &SquareLossTransform, &AttackConfig::quick(5));
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
