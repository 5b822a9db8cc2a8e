//! End-to-end marketplace integration tests spanning every crate:
//! data generation → training → pricing → purchase → arbitrage audit.

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn listed_seller(seed: u64) -> Seller {
    let mut rng = seeded_rng(seed);
    let data = mbp::data::synth::simulated1(2000, 6, 0.5, &mut rng).split(0.75, &mut rng);
    Seller::new(
        data,
        mbp::core::market::curves::grid(10.0, 100.0, 10),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 150.0),
        DemandCurve::new(DemandShape::Uniform),
    )
}

#[test]
fn full_regression_market_roundtrip() {
    let seller = listed_seller(1);
    let mut broker = Broker::new(seller.data.clone());
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let sol = broker.price_from_research(&seller);
    assert!(sol.objective > 0.0);

    // The derived pricing is arbitrage-free.
    let report = mbp::core::arbitrage::audit(&sol.pricing, &seller.grid, 10, 1e-6);
    assert!(report.is_clean(), "{report:?}");

    // Publish the curve; all three purchase modes succeed against the
    // listing and are consistent.
    broker
        .publish(
            ModelKind::LinearRegression,
            sol.pricing.clone(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
    let mut rng = seeded_rng(2);
    let s1 = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::AtNcp(0.05),
            &mut rng,
        )
        .unwrap();
    assert_eq!(s1.ncp, 0.05);
    assert!((s1.price - sol.pricing.price_for_ncp(0.05)).abs() < 1e-12);

    let s2 = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::ErrorBudget(0.08),
            &mut rng,
        )
        .unwrap();
    assert!(s2.expected_error <= 0.08 + 1e-12);

    let budget = s1.price;
    let s3 = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::PriceBudget(budget),
            &mut rng,
        )
        .unwrap();
    assert!(s3.price <= budget + 1e-9);
    // With the same budget, the accuracy must be at least s1's.
    assert!(s3.ncp <= s1.ncp + 1e-9);

    assert_eq!(broker.sales_count(), 3);
    let total = s1.price + s2.price + s3.price;
    assert!((broker.total_revenue() - total).abs() < 1e-9);
}

#[test]
fn all_three_menu_models_are_sellable() {
    let mut rng = seeded_rng(3);
    // A classification dataset works for SVM and logistic; a regression one
    // for least squares.
    let clf = mbp::data::synth::simulated2(1200, 5, 0.92, &mut rng).split(0.75, &mut rng);
    let reg = mbp::data::synth::simulated1(1200, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let grid: Vec<f64> = (1..=8).map(|i| i as f64).collect();
    let pricing =
        PricingFunction::from_points(grid.clone(), grid.iter().map(|x| 10.0 * x.sqrt()).collect())
            .unwrap();

    for (data, kind) in [
        (reg, ModelKind::LinearRegression),
        (clf.clone(), ModelKind::LogisticRegression),
        (clf, ModelKind::LinearSvm),
    ] {
        let mut broker = Broker::new(data);
        broker.support(kind, 1e-3).unwrap();
        broker
            .publish(kind, pricing.clone(), Box::new(SquareLossTransform))
            .unwrap();
        let sale = broker
            .buy_listed(kind, PurchaseRequest::AtNcp(0.5), &mut rng)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(sale.model.kind(), kind);
        assert!(sale.model.weights().is_finite());
    }
}

#[test]
fn repeated_sales_have_independent_noise() {
    let seller = listed_seller(4);
    let mut broker = Broker::new(seller.data.clone());
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let pricing = broker.price_from_research(&seller).pricing;
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();
    let mut rng = seeded_rng(5);
    let a = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::AtNcp(0.5),
            &mut rng,
        )
        .unwrap();
    let b = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::AtNcp(0.5),
            &mut rng,
        )
        .unwrap();
    // Same price, different noise realizations.
    assert_eq!(a.price, b.price);
    assert_ne!(a.model.weights(), b.model.weights());
}

#[test]
fn cheaper_always_noisier_along_the_curve() {
    let seller = listed_seller(6);
    let mut broker = Broker::new(seller.data.clone());
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let pricing = broker.price_from_research(&seller).pricing;
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();
    let ncps: Vec<f64> = (1..=30).map(|i| 0.01 * i as f64).collect();
    let curve = broker
        .price_error_curve(ModelKind::LinearRegression, &ncps)
        .unwrap();
    assert!(curve.is_well_formed());
}

#[test]
fn csv_ingested_dataset_flows_through_market() {
    // Build a dataset, write it to CSV, read it back, sell models on it.
    let mut rng = seeded_rng(7);
    let ds = mbp::data::synth::simulated1(400, 3, 0.2, &mut rng);
    let mut buf = Vec::new();
    mbp::data::csv::write_dataset(&ds, &mut buf).unwrap();
    let back = mbp::data::csv::read_dataset(&buf[..]).unwrap();
    assert_eq!(back.n(), 400);
    let tt = back.split(0.75, &mut rng);
    let mut broker = Broker::new(tt);
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let grid: Vec<f64> = vec![1.0, 2.0, 4.0];
    let pricing = PricingFunction::from_points(grid, vec![5.0, 8.0, 12.0]).unwrap();
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::AtNcp(1.0),
            &mut rng,
        )
        .unwrap();
    assert!(sale.model.weights().is_finite());
}

#[test]
fn mechanism_swap_does_not_change_prices() {
    // Uniform and Laplace mechanisms are calibrated to the same NCP
    // semantics, so the market prices identically under any of them.
    let seller = listed_seller(8);
    let pricing = {
        let broker = Broker::new(seller.data.clone());
        broker.price_from_research(&seller).pricing
    };
    let mut rng = seeded_rng(9);
    for mech in [
        Box::new(LaplaceMechanism) as Box<dyn NoiseMechanism>,
        Box::new(UniformAdditiveMechanism),
        Box::new(UniformMultiplicativeMechanism),
    ] {
        let mut broker = Broker::with_mechanism(seller.data.clone(), mech);
        broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
        broker
            .publish(
                ModelKind::LinearRegression,
                pricing.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.1),
                &mut rng,
            )
            .unwrap();
        assert!((sale.price - pricing.price_for_ncp(0.1)).abs() < 1e-12);
    }
}
