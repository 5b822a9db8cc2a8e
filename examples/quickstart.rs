//! Quickstart: stand up a model marketplace end to end.
//!
//! A seller lists a dataset with market-research curves, the broker trains
//! the optimal model (one-time cost), derives arbitrage-free revenue-
//! maximizing prices, and a buyer purchases a model instance under each of
//! the three purchase modes of the paper.
//!
//! Run with: `cargo run --example quickstart --release`

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(7);

    // --- Seller: a commercially valuable regression dataset + research. ---
    let data = mbp::data::synth::simulated1(4000, 8, 0.5, &mut rng).split(0.75, &mut rng);
    let grid = mbp::core::market::curves::grid(10.0, 100.0, 10);
    let seller = Seller::new(
        data,
        grid.clone(),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 120.0),
        DemandCurve::new(DemandShape::Uniform),
    );
    println!(
        "seller lists a dataset with {} train rows, {} features",
        seller.data.train.n(),
        seller.data.d()
    );

    // --- Broker: train once, price from research. ---
    let mut broker = Broker::new(seller.data.clone());
    let h_star = broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed")
        .clone();
    println!(
        "broker trained optimal model, |h*| = {:.3}",
        h_star.weights().norm2()
    );

    let solution = broker.price_from_research(&seller);
    let pricing = solution.pricing;
    println!(
        "broker derived arbitrage-free pricing; expected revenue {:.2}",
        solution.objective
    );

    // Audit it: the DP output must be clean.
    let report = mbp::core::arbitrage::audit(&pricing, &grid, 10, 1e-6);
    assert!(report.is_clean(), "DP pricing must be arbitrage-free");
    println!("arbitrage audit: clean");

    // List the curve: buyers purchase against the published offer.
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing.clone(),
            Box::new(SquareLossTransform),
        )
        .expect("linear regression is on the menu");

    // --- Buyer: the three purchase modes. ---
    let transform = SquareLossTransform; // E[eps_s] = delta exactly (Lemma 3)

    // (1) Pick a point on the price-error curve.
    let curve = broker
        .price_error_curve(
            ModelKind::LinearRegression,
            &transform,
            &pricing,
            &[0.01, 0.02, 0.05, 0.1],
        )
        .unwrap();
    println!("\nprice-error curve shown to the buyer:");
    for p in &curve.points {
        println!(
            "  ncp {:>5.3}  expected error {:>6.4}  price {:>7.2}",
            p.ncp, p.expected_error, p.price
        );
    }
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::AtNcp(0.02),
            &mut rng,
        )
        .unwrap();
    println!("bought at ncp 0.02 for {:.2}", sale.price);

    // (2) Error budget: cheapest instance with expected error <= 0.05.
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::ErrorBudget(0.05),
            &mut rng,
        )
        .unwrap();
    println!(
        "error budget 0.05 -> ncp {:.4}, price {:.2}",
        sale.ncp, sale.price
    );

    // (3) Price budget: most accurate instance within 40 units.
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::PriceBudget(40.0),
            &mut rng,
        )
        .unwrap();
    println!(
        "price budget 40 -> ncp {:.4}, expected error {:.4}, paid {:.2}",
        sale.ncp, sale.expected_error, sale.price
    );
    assert!(sale.price <= 40.0 + 1e-9);

    println!(
        "\nbroker ledger: {} sales, total revenue {:.2}",
        broker.ledger().len(),
        broker.total_revenue()
    );
}
