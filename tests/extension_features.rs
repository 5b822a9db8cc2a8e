//! Integration coverage for the extensions layered on top of the paper
//! (DESIGN.md §2.9), exercised end-to-end through the public facade.

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn population() -> Vec<BuyerPoint> {
    let g = mbp::core::market::curves::grid(10.0, 100.0, 10);
    buyer_points(
        &g,
        &ValueCurve::new(ValueShape::Concave { power: 2.0 }, 10.0, 100.0),
        &DemandCurve::new(DemandShape::Uniform),
    )
    .unwrap()
}

#[test]
fn welfare_decomposes_for_every_solver_and_baseline() {
    let pts = population();
    let total: f64 = pts.iter().map(|p| p.demand * p.valuation).sum();
    let curves = vec![
        solve_bv_dp(&pts).pricing,
        solve_bv_dp_fair(&pts, 10.0).pricing,
        Baseline::Lin.pricing(&pts),
        Baseline::OptC.pricing(&pts),
    ];
    for pf in curves {
        let w = welfare(&pf, &pts);
        assert!((w.revenue - revenue(&pf, &pts)).abs() < 1e-9);
        assert!((w.buyer_surplus - buyer_surplus(&pf, &pts)).abs() < 1e-9);
        assert!(w.efficiency >= -1e-12 && w.efficiency <= 1.0 + 1e-12);
        assert!(w.revenue + w.buyer_surplus <= total + 1e-9);
    }
}

#[test]
fn fairness_pareto_frontier_is_monotone() {
    let pts = population();
    let mut prev_rev = f64::INFINITY;
    let mut prev_aff = -1.0;
    for lambda in [0.0, 2.0, 8.0, 32.0, 128.0] {
        let sol = solve_bv_dp_fair(&pts, lambda);
        let r = revenue(&sol.pricing, &pts);
        let a = affordability(&sol.pricing, &pts);
        assert!(r <= prev_rev + 1e-9, "revenue rose along lambda");
        assert!(a >= prev_aff - 1e-9, "affordability fell along lambda");
        prev_rev = r;
        prev_aff = a;
    }
}

#[test]
fn shared_broker_full_listing_flow() {
    let mut rng = seeded_rng(31);
    let data = mbp::data::synth::simulated1(600, 4, 0.5, &mut rng).split(0.75, &mut rng);
    let pts = population();
    let pricing = solve_bv_dp(&pts).pricing;
    let broker = {
        let mut b = Broker::new(data);
        b.support(ModelKind::LinearRegression, 1e-6).unwrap();
        b.publish(
            ModelKind::LinearRegression,
            pricing.clone(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
        SharedBroker::new(b)
    };
    // Concurrent listed purchases from several threads.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut rng = seeded_rng(100 + t);
                broker.with_broker(|b| {
                    b.buy_listed(
                        ModelKind::LinearRegression,
                        PurchaseRequest::AtNcp(0.05),
                        &mut rng,
                    )
                    .unwrap()
                    .price
                })
            })
        })
        .collect();
    let prices: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(prices.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    assert_eq!(broker.sales_count(), 4);
}

#[test]
fn adaptive_market_smoke() {
    let truth = population();
    let guess: Vec<f64> = truth.iter().map(|p| p.valuation * 0.5).collect();
    let mut rng = seeded_rng(32);
    let reports = run_adaptive_market(
        &truth,
        &guess,
        EpochConfig {
            epochs: 8,
            buyers_per_epoch: 800,
            learning_rate: 0.3,
            valuation_jitter: 0.05,
        },
        &mut rng,
    );
    assert_eq!(reports.len(), 8);
    assert!(reports.last().unwrap().estimate_rmse < reports[0].estimate_rmse);
}

#[test]
fn sparse_text_pipeline_end_to_end() {
    use mbp::ml::sparse::{sgd_logistic_sparse, zero_one_error_sparse, SparseSgdConfig};
    let mut rng = seeded_rng(33);
    let corpus = mbp::data::sparse::sparse_text_standin(3000, 400, 8, 0.02, &mut rng);
    let (train, test) = corpus.split(0.75, &mut rng);
    let fit = sgd_logistic_sparse(&train, SparseSgdConfig::default());
    let floor = zero_one_error_sparse(&fit.weights, &test);
    assert!(floor < 0.35, "sparse classifier failed to learn: {floor}");
    // Release noisy versions through the standard dense mechanism; error
    // degrades monotonically-ish with noise.
    let kappa = fit.weights.norm2_squared();
    let mech = GaussianMechanism;
    let reps = 30;
    let mut errs = Vec::new();
    for ncp_scale in [0.1, 1.0, 10.0] {
        let mut acc = 0.0;
        for _ in 0..reps {
            let noisy = mech.perturb(&fit.weights, kappa * ncp_scale, &mut rng);
            acc += zero_one_error_sparse(&noisy, &test);
        }
        errs.push(acc / reps as f64);
    }
    assert!(errs[0] < errs[2], "more noise should hurt: {errs:?}");
}

#[test]
fn delta_method_prices_error_budgets() {
    let mut rng = seeded_rng(34);
    let data = mbp::data::synth::simulated1(1200, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    let h = broker
        .support(ModelKind::LinearRegression, 1e-6)
        .unwrap()
        .weights()
        .clone();
    let test = broker.data().test.clone();
    let transform = DeltaMethodTransform::for_linear_regression(&test, &h);
    let pts = population();
    let pricing = solve_bv_dp(&pts).pricing;
    let target = transform.expected_error(0.02);
    broker
        .publish(ModelKind::LinearRegression, pricing, Box::new(transform))
        .unwrap();
    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::ErrorBudget(target),
            &mut rng,
        )
        .unwrap();
    assert!((sale.ncp - 0.02).abs() < 1e-9);
    assert!(sale.expected_error <= target + 1e-12);
}
