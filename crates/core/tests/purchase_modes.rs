//! Purchase-mode equivalence: budget requests are *navigation*, not a
//! separate pricing path.
//!
//! `ErrorBudget` and `PriceBudget` resolve to an NCP and then go through
//! exactly the same curve point a direct `AtNcp` purchase hits. These
//! tests pin that equivalence with the two-brokers-same-seed idiom
//! (identical data and purchase RNG seeds ⇒ bit-identical releases), pin
//! every quote and sale to the published curve's own `price_for_ncp` bit
//! for bit, and tie the curve to the differential oracle from
//! `mbp-testkit`: it agrees with the compensated-sum reference, so there
//! is no side channel for a budget buyer to exploit.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, PurchaseRequest, Sale, SaleArena, MAX_BATCH};
use mbp_core::pricing::PricingFunction;
use mbp_data::synth;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_testkit::{check_error_space, check_pricing, OracleConfig};
use rand::Rng;

const KIND: ModelKind = ModelKind::LinearRegression;

fn curve() -> PricingFunction {
    let grid: Vec<f64> = (1..=6).map(f64::from).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 9.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("concave curve is valid")
}

fn broker_with_listing(data_seed: u64) -> Broker {
    let mut rng = seeded_rng(data_seed);
    let data = synth::simulated1(60, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(KIND, 1e-6)
        .expect("linear regression is supported");
    broker
        .publish(KIND, curve(), Box::new(SquareLossTransform))
        .expect("publish succeeds");
    broker
}

/// Runs one purchase on a fresh broker with fixed data and RNG seeds, so
/// two calls with requests that resolve to the same NCP must produce
/// bit-identical sales.
fn one_purchase(request: PurchaseRequest) -> Sale {
    let mut broker = broker_with_listing(71);
    let mut rng = seeded_rng(72);
    broker
        .buy_listed(KIND, request, &mut rng)
        .expect("request is satisfiable on this listing")
}

fn assert_same_sale(a: &Sale, b: &Sale) {
    assert_eq!(a.price.to_bits(), b.price.to_bits(), "price");
    assert_eq!(a.ncp.to_bits(), b.ncp.to_bits(), "ncp");
    assert_eq!(
        a.expected_error.to_bits(),
        b.expected_error.to_bits(),
        "expected error"
    );
    let wa = a.model.weights().as_slice();
    let wb = b.model.weights().as_slice();
    assert_eq!(wa.len(), wb.len());
    for (x, y) in wa.iter().zip(wb) {
        assert_eq!(x.to_bits(), y.to_bits(), "released weights");
    }
}

#[test]
fn error_budget_hits_the_same_table_entry_as_a_direct_purchase() {
    for eps in [1.2, 1.5, 2.0, 3.0] {
        let budgeted = one_purchase(PurchaseRequest::ErrorBudget(eps));
        assert!(
            budgeted.expected_error <= eps + 1e-12,
            "budget respected: {} > {eps}",
            budgeted.expected_error
        );
        // Replaying the resolved NCP directly is indistinguishable — same
        // curve point, same price, same noise draw, same weights.
        let direct = one_purchase(PurchaseRequest::AtNcp(budgeted.ncp));
        assert_same_sale(&budgeted, &direct);
    }
}

#[test]
fn price_budget_hits_the_same_table_entry_as_a_direct_purchase() {
    for budget in [5.0, 9.0, 14.0, 25.0] {
        let budgeted = one_purchase(PurchaseRequest::PriceBudget(budget));
        assert!(
            budgeted.price <= budget + 1e-12,
            "budget respected: {} > {budget}",
            budgeted.price
        );
        let direct = one_purchase(PurchaseRequest::AtNcp(budgeted.ncp));
        assert_same_sale(&budgeted, &direct);
    }
}

#[test]
fn budget_modes_pay_exactly_the_published_curve_price() {
    // First, the listing's curve is differentially clean: it agrees with
    // the compensated-sum reference to within 1e-12 in both price space
    // and error space. Budget navigation therefore cannot
    // land on a "cheaper copy" of any entry.
    let f = curve();
    let cfg = OracleConfig {
        seed: 73,
        probes: 1_000,
        ..OracleConfig::default()
    };
    assert!(check_pricing(&f, &cfg).is_clean());
    assert!(check_error_space(&f, &SquareLossTransform, &cfg).is_clean());

    // Second, every budget sale is priced by that same curve.
    for request in [
        PurchaseRequest::ErrorBudget(1.3),
        PurchaseRequest::ErrorBudget(2.5),
        PurchaseRequest::PriceBudget(7.0),
        PurchaseRequest::PriceBudget(18.0),
    ] {
        let sale = one_purchase(request);
        assert_eq!(
            sale.price.to_bits(),
            f.price_for_ncp(sale.ncp).to_bits(),
            "budget sale must be served from the published curve"
        );
    }
}

/// The broker charges exactly what the published curve says: on a
/// non-uniform grid (knots `1 + 0.37·i`), every quote and every sale at
/// 10k seeded random non-knot NCPs, across the origin ray, the interior
/// segments and the saturated tail, carries the bits of
/// `pricing.price_for_ncp(ncp)`.
#[test]
fn quotes_and_sales_carry_the_published_curve_bits() {
    let grid: Vec<f64> = (0..40).map(|i| 1.0 + 0.37 * f64::from(i)).collect();
    let prices: Vec<f64> = grid
        .iter()
        .map(|x| 7.0 * x.sqrt() + 0.3 * x.ln_1p())
        .collect();
    let pricing = PricingFunction::from_points(grid.clone(), prices).expect("concave curve");
    let mut rng = seeded_rng(0xB175);
    let data = synth::simulated1(60, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("supported");
    broker
        .publish(KIND, pricing.clone(), Box::new(SquareLossTransform))
        .expect("listed");
    let x_max = grid[grid.len() - 1];
    let requests: Vec<PurchaseRequest> = (0..10_000)
        .map(|_| rng.gen_range(0.5..x_max + 1.0))
        .filter(|x| !grid.contains(x))
        .map(|x| PurchaseRequest::AtNcp(1.0 / x))
        .collect();
    assert!(requests.len() > 9_990);
    let curve_bits = |ncp: f64| pricing.price_for_ncp(ncp).to_bits();
    let mut arena = SaleArena::new();
    let mut checked = 0;
    for batch in requests.chunks(MAX_BATCH) {
        for quote in broker.price_batch(KIND, batch).expect("listed") {
            let quote = quote.expect("positive finite NCP");
            assert_eq!(
                quote.price.to_bits(),
                curve_bits(quote.ncp),
                "quote at {}",
                quote.ncp
            );
        }
        broker
            .buy_batch_into(KIND, batch, &mut rng, &mut arena)
            .expect("listed");
        for sale in arena.results() {
            let sale = sale.expect("positive finite NCP");
            assert_eq!(
                sale.price.to_bits(),
                curve_bits(sale.ncp),
                "sale at {}",
                sale.ncp
            );
            checked += 1;
        }
    }
    assert_eq!(checked, requests.len());
}
