//! Example 3 from the paper: Bob the business analyst.
//!
//! Bob wants a logistic-regression classifier telling whether a social-media
//! message relates to his company. Messages arrive as (sparse-ish) embedding
//! vectors; the market sells him classifier instances at accuracy levels
//! matching his budget, priced off the *misclassification rate* via an
//! empirically estimated error transform (the paper's Figure 6 machinery).
//!
//! Run with: `cargo run --example social_classifier --release`

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(411);

    // Embedded tweets: compact 10-dim embeddings, lightly noisy labels.
    let data =
        mbp::data::synth::classification_standin(5000, 10, 0.02, &mut rng).split(0.75, &mut rng);
    let seller = Seller::new(
        data,
        mbp::core::market::curves::grid(10.0, 100.0, 10),
        ValueCurve::new(ValueShape::Sigmoid { steepness: 9.0 }, 10.0, 400.0),
        DemandCurve::new(DemandShape::Peak {
            center: 0.7,
            width: 0.25,
        }),
    );
    let mut broker = Broker::new(seller.data.clone());
    let h_star = broker
        .support(ModelKind::LogisticRegression, 1e-3)
        .expect("training failed")
        .weights()
        .clone();
    let pricing = broker.price_from_research(&seller).pricing;

    // Bob cares about 0/1 accuracy, a non-convex error: the transform has
    // to be estimated empirically (Monte Carlo + isotonic smoothing).
    let test = broker.data().test.clone();
    let kappa = h_star.norm2_squared();
    let ncp_grid: Vec<f64> = (1..=12).map(|i| kappa * i as f64 / 12.0).collect();
    let transform = EmpiricalTransform::estimate(
        &GaussianMechanism,
        &h_star,
        &test,
        TestError::ZeroOne,
        &ncp_grid,
        400,
        99,
    );
    println!("estimated 0/1-error transform:");
    for (ncp, err) in transform.curve() {
        println!("  ncp {ncp:>7.3} -> expected misclassification {err:.4}");
    }
    let floor = TestError::ZeroOne.evaluate(&h_star, &test);
    println!("noiseless model's misclassification rate: {floor:.4}");

    // Bob asks: "give me the cheapest classifier that is wrong at most 30%
    // of the time" (the noiseless model itself is wrong ~24% of the time —
    // the labels are intrinsically noisy).
    broker
        .publish(ModelKind::LogisticRegression, pricing, Box::new(transform))
        .expect("logistic regression is on the menu");
    let target = 0.30;
    match broker.buy_listed(
        ModelKind::LogisticRegression,
        PurchaseRequest::ErrorBudget(target),
        &mut rng,
    ) {
        Ok(sale) => {
            let measured = TestError::ZeroOne.evaluate(sale.model.weights(), &test);
            println!(
                "Bob paid {:.2} for a classifier with expected error {:.4} (measured {:.4})",
                sale.price, sale.expected_error, measured
            );
            // Use it: classify a fresh message.
            let message = &test.x.row(0).to_vec();
            let label = sale.model.classify(message);
            let prob = sale.model.probability(message);
            println!(
                "first test message: relevance prob {prob:.3} -> label {}",
                if label > 0.0 {
                    "RELEVANT"
                } else {
                    "irrelevant"
                }
            );
        }
        Err(e) => println!("purchase failed: {e}"),
    }

    // A tighter requirement than the noiseless floor is honestly refused.
    let impossible = floor * 0.5;
    match broker.buy_listed(
        ModelKind::LogisticRegression,
        PurchaseRequest::ErrorBudget(impossible),
        &mut rng,
    ) {
        Err(MarketError::UnachievableError(e)) => {
            println!("error budget {e:.4} correctly refused (below the noiseless floor)")
        }
        other => panic!("expected UnachievableError, got {other:?}"),
    }
}
