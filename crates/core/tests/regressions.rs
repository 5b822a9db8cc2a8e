//! Named regression tests promoted from `properties.proptest-regressions`.
//!
//! Proptest replays those seeds before generating novel cases, but only
//! for whoever runs the property suite with the regression file present.
//! Promoting the shrunken counterexamples into plain `#[test]`s makes
//! them first-class, named, and grep-able: they run everywhere (including
//! `--test regressions` in isolation), survive a deleted or rewritten
//! regression file, and document *what* the historical failure was.
//!
//! Both cases stress the same corner of the Theorem 10 DP: long runs of
//! zero-valuation buyers below a single positive-valuation point, where
//! the subadditivity ratio constraints must pull the high price down
//! without driving intermediate prices negative or breaking monotonicity.

use mbp_core::arbitrage::audit;
use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, MarketError};
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::{revenue, solve_bv_dp, BuyerPoint};
use mbp_data::synth;
use mbp_ml::ModelKind;
use mbp_optim::isotonic::is_relaxed_feasible;
use mbp_randx::seeded_rng;

/// Mirrors the `dp_output_always_well_behaved` property from
/// `properties.rs` on one concrete instance.
fn assert_dp_well_behaved(points: &[BuyerPoint]) {
    let sol = solve_bv_dp(points);
    let grid: Vec<f64> = points.iter().map(|p| p.a).collect();
    assert!(
        is_relaxed_feasible(sol.pricing.prices(), &grid, 1e-7),
        "DP prices must be monotone and ratio-feasible"
    );
    assert!(
        (sol.objective - revenue(&sol.pricing, points)).abs() < 1e-9,
        "objective {} inconsistent with evaluated revenue {}",
        sol.objective,
        revenue(&sol.pricing, points)
    );
    assert!(sol.objective >= -1e-12);
    let surplus: f64 = points.iter().map(|p| p.demand * p.valuation).sum();
    assert!(sol.objective <= surplus + 1e-9);
    let report = audit(&sol.pricing, &grid, 4, 1e-5);
    assert!(report.is_clean(), "{report:?}");
}

/// Seed `99080a23…`: three zero-valuation points, then one valued point
/// far up the grid.
#[test]
fn dp_regression_zero_valuation_prefix_with_one_valued_tail_point() {
    let points = [
        BuyerPoint::new(0.5, 0.0, 0.05),
        BuyerPoint::new(2.620_172_681_184_32, 0.0, 0.05),
        BuyerPoint::new(3.120_172_681_184_32, 0.0, 0.05),
        BuyerPoint::new(6.756_339_404_138_743, 12.203_109_316_914_15, 0.05),
    ];
    assert_dp_well_behaved(&points);
}

/// Seed `e0e3f9d5…`: five zero-valuation points in two tight clusters,
/// then one valued point just past the second cluster.
#[test]
fn dp_regression_clustered_zero_valuations_before_the_valued_point() {
    let points = [
        BuyerPoint::new(2.089_264_147_368_508, 0.0, 0.05),
        BuyerPoint::new(2.589_264_147_368_508, 0.0, 0.05),
        BuyerPoint::new(3.089_264_147_368_508, 0.0, 0.05),
        BuyerPoint::new(5.800_255_919_707_685, 0.0, 0.05),
        BuyerPoint::new(6.300_255_919_707_685, 0.0, 0.05),
        BuyerPoint::new(6.800_255_919_707_685, 17.869_475_530_965_023, 0.05),
    ];
    assert_dp_well_behaved(&points);
}

/// Found by `mbp-lint`'s panic-freedom triage of the serve path: a buyer
/// could crash the broker by requesting a price–error curve over a grid
/// containing a NaN, zero, or negative NCP. The NaN slipped past the old
/// `partial_cmp().expect("finite NCPs")` sort and then tripped the
/// `delta > 0` assert inside `PricingFunction::price_for_ncp`. The grid
/// is now validated up front and the request rejected as `BadRequest`.
#[test]
fn regression_price_error_curve_rejects_nonpositive_and_nan_ncps() {
    let mut rng = seeded_rng(42);
    let ds = synth::simulated1(200, 4, 0.5, &mut rng);
    let mut broker = Broker::new(ds.split(0.75, &mut rng));
    broker.support(ModelKind::LinearRegression, 0.0).unwrap();
    let grid: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).unwrap();

    for bad_grid in [
        vec![1.0, f64::NAN, 3.0],
        vec![0.0, 1.0, 2.0],
        vec![-1.0, 1.0, 2.0],
        vec![1.0, f64::INFINITY],
    ] {
        let err = broker
            .price_error_curve(
                ModelKind::LinearRegression,
                &SquareLossTransform,
                &pricing,
                &bad_grid,
            )
            .unwrap_err();
        assert!(
            matches!(err, MarketError::BadRequest(_)),
            "grid {bad_grid:?} must be rejected, got {err:?}"
        );
    }

    // The happy path is untouched: a valid grid still yields a curve.
    let curve = broker
        .price_error_curve(
            ModelKind::LinearRegression,
            &SquareLossTransform,
            &pricing,
            &[0.5, 1.0, 2.0, 4.0],
        )
        .unwrap();
    assert_eq!(curve.points.len(), 4);
    assert!(curve.is_well_formed());
}

/// PR 8 batch-admission hardening: before `MAX_BATCH`, a network front-end
/// bug could dispatch an empty batch (paying the listing lookup for a
/// silent no-op) or queue an unbounded batch behind a single shared read
/// guard. Both are now rejected up front as `BadRequest` by every batch
/// entry point — `buy_batch`, `buy_batch_into`, `quote_batch_into`,
/// `price_batch`, and the `SharedBroker` wrappers —
/// while batches of exactly `MAX_BATCH` requests still serve.
#[test]
fn regression_batch_entry_points_reject_empty_and_oversized_batches() {
    use mbp_core::market::concurrent::SharedBroker;
    use mbp_core::market::{PurchaseRequest, SaleArena, MAX_BATCH};

    let mut rng = seeded_rng(4242);
    let ds = synth::simulated1(200, 4, 0.5, &mut rng);
    let mut broker = Broker::new(ds.split(0.75, &mut rng));
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let grid: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).unwrap();
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();

    let kind = ModelKind::LinearRegression;
    let oversized = vec![PurchaseRequest::AtNcp(1.0); MAX_BATCH + 1];
    let mut arena = SaleArena::new();

    // Empty and oversized batches: typed BadRequest from every entry point,
    // with no RNG consumed and no ledger growth.
    let rng_probe = |rng: &mut mbp_randx::MbpRng| {
        use rand::Rng;
        rng.clone().gen_range(0.0..1.0f64).to_bits()
    };
    let before_draw = rng_probe(&mut rng);
    for requests in [&[][..], &oversized[..]] {
        let err = broker.buy_batch(kind, requests, &mut rng).unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
        let err = broker
            .buy_batch_into(kind, requests, &mut rng, &mut arena)
            .unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
        let err = broker
            .quote_batch_into(kind, requests, &mut rng, &mut arena)
            .unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
        let err = broker.price_batch(kind, requests).unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
    }
    assert_eq!(
        rng_probe(&mut rng),
        before_draw,
        "rejected batches must not consume RNG"
    );
    assert!(
        broker.ledger().is_empty(),
        "rejected batches must not settle"
    );

    let shared = SharedBroker::new(broker);
    for requests in [&[][..], &oversized[..]] {
        let err = shared.buy_batch(kind, requests, &mut rng).unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
        let err = shared
            .buy_batch_into(kind, requests, &mut rng, &mut arena)
            .unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
        let err = shared.price_batch(kind, requests).unwrap_err();
        assert!(matches!(err, MarketError::BadRequest(_)), "{err:?}");
    }
    assert_eq!(shared.sales_count(), 0);

    // Exactly MAX_BATCH requests is the documented cap and still serves.
    let full = vec![PurchaseRequest::AtNcp(1.0); MAX_BATCH];
    shared
        .buy_batch_into(kind, &full, &mut rng, &mut arena)
        .unwrap();
    assert_eq!(arena.len(), MAX_BATCH);
    assert!(arena.results().all(|r| r.is_ok()));
    assert_eq!(shared.sales_count(), MAX_BATCH);
}
