//! Reference purchase path for differential tests of the broker's kernel.
//!
//! [`scan_purchase`] sells one instance straight from the seller's
//! piecewise-linear [`PricingFunction`], one request at a time: it resolves
//! the request by inverting the curve or the error transform directly,
//! charges `p̄(1/δ)`, and releases `h* + noise` through the mechanism's
//! allocating `perturb`. The broker's listed kernel
//! (`Broker::quote_batch_into`) answers the same request in its resolve,
//! price and noise passes over reused arena buffers, and must agree with
//! this reference bit for bit: the same price, NCP, expected error,
//! released weights, rejection variant and RNG consumption.

use mbp_core::error::ErrorTransform;
use mbp_core::market::{MarketError, PurchaseRequest, Sale};
use mbp_core::mechanism::NoiseMechanism;
use mbp_core::pricing::PricingFunction;
use mbp_ml::LinearModel;
use mbp_randx::MbpRng;

/// Sells one noisy instance of `model` under `pricing` and `transform`,
/// drawing the release noise from `rng` (rejected requests draw nothing).
///
/// # Errors
/// [`MarketError::BadRequest`] for a non-positive or non-finite NCP or a
/// negative or non-finite budget; [`MarketError::UnachievableError`] when
/// φ has no positive inverse at the error budget;
/// [`MarketError::InsufficientBudget`] when the budget buys no positive
/// precision.
pub fn scan_purchase(
    pricing: &PricingFunction,
    transform: &dyn ErrorTransform,
    model: &LinearModel,
    mechanism: &dyn NoiseMechanism,
    request: PurchaseRequest,
    rng: &mut MbpRng,
) -> Result<Sale, MarketError> {
    let ncp = match request {
        PurchaseRequest::AtNcp(d) => {
            if !(d > 0.0 && d.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "NCP must be positive and finite, got {d}"
                )));
            }
            d
        }
        PurchaseRequest::ErrorBudget(eps) => transform
            .ncp_for_error(eps)
            .filter(|&d| d > 0.0)
            .ok_or(MarketError::UnachievableError(eps))?,
        PurchaseRequest::PriceBudget(budget) => {
            if !(budget >= 0.0 && budget.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "budget must be non-negative, got {budget}"
                )));
            }
            // Budgets at or above saturation buy the grid's most precise
            // point, never the noiseless model.
            let x = pricing
                .max_precision_for_budget(budget)
                .ok_or(MarketError::InsufficientBudget(budget))?
                .min(pricing.grid().last().copied().unwrap_or(0.0));
            if x <= 0.0 {
                return Err(MarketError::InsufficientBudget(budget));
            }
            1.0 / x
        }
    };
    let weights = mechanism.perturb(model.weights(), ncp, rng);
    Ok(Sale {
        model: model.with_weights(weights),
        price: pricing.price_for_ncp(ncp),
        ncp,
        expected_error: transform.expected_error(ncp),
    })
}
