//! Example 1 from the paper: Alice the journalist.
//!
//! Alice studies how demographic features predict average annual household
//! income. The full dataset exceeds her budget, but a model-based market
//! lets her buy a *linear regression model instance* whose accuracy matches
//! what she can pay — she never needs the raw rows.
//!
//! Run with: `cargo run --example journalist_regression --release`

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(2019);

    // A demographics -> income table: (age, sex, height, ...) features with
    // a linear income signal — the paper's Example 2 schema, synthesized.
    let data = mbp::data::synth::regression_standin(6000, 4, 0.8, &mut rng).split(0.75, &mut rng);
    let data = mbp::data::Standardizer::fit_apply(&data);

    // The market: seller research says value saturates quickly (journalists
    // need directionally-correct coefficients, not production accuracy).
    let grid = mbp::core::market::curves::grid(5.0, 80.0, 12);
    let seller = Seller::new(
        data,
        grid,
        ValueCurve::new(ValueShape::Concave { power: 3.0 }, 50.0, 900.0),
        DemandCurve::new(DemandShape::Decreasing),
    );
    let mut broker = Broker::new(seller.data.clone());
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let pricing = broker.price_from_research(&seller).pricing;

    // Alice's budget would never buy the raw dataset (the whole-dataset
    // price is the curve's saturation price times a large markup).
    let alice = Buyer::new("Alice", 250.0);
    let full_dataset_price = pricing.max_price() * 10.0;
    println!(
        "whole-dataset price ~{full_dataset_price:.0}; Alice's budget {:.0}",
        alice.budget
    );
    assert!(alice.budget < full_dataset_price);

    // The buyer-facing error metric: data-space square loss, transformed
    // analytically (no Monte Carlo needed for linear regression).
    let h_star = broker
        .optimal_model(ModelKind::LinearRegression)
        .unwrap()
        .weights()
        .clone();
    let test = broker.data().test.clone();
    let transform = LinRegSquareTransform::new(&test, &h_star);
    println!(
        "noiseless test error {:.4}; error grows by {:.6} per unit of noise",
        transform.base(),
        transform.slope()
    );

    // The broker lists the curve; Alice spends her budget on the most
    // accurate instance she can afford.
    broker
        .publish(ModelKind::LinearRegression, pricing, Box::new(transform))
        .expect("linear regression is on the menu");
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::PriceBudget(alice.budget),
            &mut rng,
        )
        .expect("purchase failed");
    println!(
        "Alice paid {:.2} for an instance with ncp {:.4} (expected error {:.4})",
        sale.price, sale.ncp, sale.expected_error
    );

    // She can immediately run her story analysis: which feature moves
    // income the most?
    let weights = sale.model.weights();
    let (best_idx, best_w) = weights
        .as_slice()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
        .unwrap();
    println!("strongest predictor: feature {best_idx} with coefficient {best_w:.3}");

    // Sanity: the noisy model's test error is near its promised expectation.
    let measured = TestError::SquareLoss.evaluate(sale.model.weights(), &test);
    println!(
        "measured test error of the purchased instance: {measured:.4} (promised E = {:.4})",
        sale.expected_error
    );
}
