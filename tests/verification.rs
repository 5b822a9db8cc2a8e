//! The verification layer, end-to-end: the mbp-testkit attack engine,
//! differential oracles, and schedule explorer run against *real*
//! optimizer output and the real concurrent broker — the acceptance
//! checks of the testkit PR.
//!
//! Theorems 5/6 say optimizer-emitted curves are arbitrage-free; the
//! attack engine gets 10^5 randomized trials per curve family to disagree.
//! The differential oracle holds the one pricing evaluator, and the error
//! prices sold through the broker's one request resolver, to 1e-12
//! relative agreement with the Kahan-summed reference. The schedule
//! explorer samples 10^4 interleavings of concurrent broker
//! operations at 2–4 virtual threads and checks linearizability against a
//! single-threaded reference.

use mbp::prelude::*;
use mbp::randx::seeded_rng;
use mbp_testkit::{
    attack_curve, attack_error_space, check_error_space, check_pricing, AttackConfig, Corpus,
    OracleConfig, ScheduleConfig,
};
use rand::Rng;

/// Buyer points on an ascending precision grid with seeded valuations —
/// the `T_bv` instance family.
fn buyer_instance(seed: u64, n: usize) -> Vec<BuyerPoint> {
    let mut rng = seeded_rng(seed);
    let mut points = Vec::with_capacity(n);
    let mut valuation: f64 = 0.0;
    for i in 0..n {
        let a = 0.5 + i as f64 * 0.45;
        valuation += rng.gen_range(0.0..30.0);
        points.push(BuyerPoint::new(a, valuation, 1.0 / n as f64));
    }
    points
}

/// Price targets for the interpolation solvers — the `T²_pi`/`T∞_pi`
/// instance family (deliberately non-monotone targets, so the solvers
/// must actually project).
fn price_instance(seed: u64, n: usize) -> Vec<PricePoint> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|i| PricePoint::new(0.5 + i as f64 * 0.4, rng.gen_range(1.0..40.0)))
        .collect()
}

/// Every optimizer-emitted curve family survives 10^5 attack trials:
/// `T_bv` (buyer-valuation DP, Theorem 10), `T²_pi` (L2 price
/// interpolation), and `T∞_pi` (L∞ price interpolation).
#[test]
fn optimizer_emitted_curves_survive_1e5_attack_trials() {
    let solutions = [
        ("T_bv", solve_bv_dp(&buyer_instance(41, 24)).pricing),
        ("T2_pi", solve_pi_l2(&price_instance(42, 24)).pricing),
        ("Tinf_pi", solve_pi_l1(&price_instance(43, 24)).pricing),
    ];
    for (name, pricing) in &solutions {
        let cfg = AttackConfig {
            seed: 0xbead + pricing.grid().len() as u64,
            trials: 100_000,
            ..AttackConfig::default()
        };
        let report = attack_curve(pricing, &cfg);
        assert_eq!(report.trials, 100_000, "{name}: full budget must run");
        assert!(
            report.is_clean(),
            "{name}: optimizer curve is exploitable: {:?}",
            report.violations
        );
        // The persisted regression corpus replays clean too.
        let corpus = Corpus::load(&Corpus::default_dir().join("pricing.txt")).expect("corpus");
        assert!(
            corpus.replay(pricing, 1e-9).is_empty(),
            "{name}: corpus regression"
        );
    }
}

/// The ε-space attack (through the error transform φ) also comes up empty
/// against DP output.
#[test]
fn error_space_attack_is_clean_on_dp_output() {
    let pricing = solve_bv_dp(&buyer_instance(44, 16)).pricing;
    let report = attack_error_space(
        &pricing,
        &SquareLossTransform,
        &AttackConfig::quick(0xe5_ace),
    );
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// One request resolver: every evaluation of a purchase request goes
/// through `resolve_ncp` and the kernel's `p̄(1/δ)`. Over seeded requests
/// in all three purchase modes — error 0, errors at and just below a
/// `LinRegSquareTransform`'s base, unachievable budgets, NCPs beyond both
/// ends of the grid — four answers agree: `resolve_ncp` then `price_at`,
/// `Broker::price_batch`, the price the error-space attack compares
/// (`sold_price`), and the listing's `price_error_curve` at the resolved
/// NCP. `Ok` prices match bit for bit; rejections are the same variant.
#[test]
fn every_request_path_prices_through_the_one_resolver() {
    use mbp::core::market::resolve_ncp;
    use mbp_testkit::sold_price;
    use std::mem::discriminant;

    let kind = ModelKind::LinearRegression;
    let mut rng = seeded_rng(0x0e5_01e);
    let data = mbp::data::synth::simulated1(600, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    let h = broker.support(kind, 0.0).unwrap().weights().clone();
    let transform = LinRegSquareTransform::new(&broker.data().test, &h);
    let (base, slope) = (transform.base(), transform.slope());
    assert!(base > 0.0 && slope > 0.0);
    // 10·√x on knots 1..=10: precisions past 10 saturate, below 1 ride the ray.
    let grid: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let pricing =
        PricingFunction::from_points(grid.clone(), grid.iter().map(|x| 10.0 * x.sqrt()).collect())
            .unwrap();
    broker
        .publish(kind, pricing.clone(), Box::new(transform.clone()))
        .unwrap();

    let saturation = pricing.max_price();
    let mut requests = vec![
        PurchaseRequest::ErrorBudget(0.0),
        PurchaseRequest::ErrorBudget(base),
        PurchaseRequest::ErrorBudget(base - 1e-13),
        PurchaseRequest::ErrorBudget(base * (1.0 - 1e-9)),
        PurchaseRequest::ErrorBudget(-1.0),
        PurchaseRequest::ErrorBudget(f64::NAN),
        PurchaseRequest::ErrorBudget(f64::INFINITY),
        PurchaseRequest::ErrorBudget(base + slope * 1e-3),
        PurchaseRequest::AtNcp(1e-3),
        PurchaseRequest::AtNcp(50.0),
        PurchaseRequest::AtNcp(0.0),
        PurchaseRequest::AtNcp(-1.0),
        PurchaseRequest::AtNcp(f64::NAN),
        PurchaseRequest::AtNcp(f64::INFINITY),
        PurchaseRequest::PriceBudget(0.0),
        PurchaseRequest::PriceBudget(5.0),
        PurchaseRequest::PriceBudget(saturation),
        PurchaseRequest::PriceBudget(1e6),
        PurchaseRequest::PriceBudget(-1.0),
        PurchaseRequest::PriceBudget(f64::NAN),
    ];
    for _ in 0..300 {
        let delta = 10f64.powf(rng.gen_range(-3.0..1.5));
        requests.push(PurchaseRequest::AtNcp(delta));
        requests.push(PurchaseRequest::ErrorBudget(
            transform.expected_error(delta),
        ));
        requests.push(PurchaseRequest::ErrorBudget(base * rng.gen_range(0.9..1.0)));
        requests.push(PurchaseRequest::PriceBudget(
            rng.gen_range(-1.0..1.2 * saturation),
        ));
    }

    let same = |what: &str,
                r: PurchaseRequest,
                a: &Result<f64, MarketError>,
                b: &Result<f64, MarketError>| {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits(), "{what} {r:?}: {x} vs {y}"),
            (Err(x), Err(y)) => {
                assert_eq!(
                    discriminant(x),
                    discriminant(y),
                    "{what} {r:?}: {x:?} vs {y:?}"
                )
            }
            _ => panic!("{what} {r:?}: {a:?} vs {b:?}"),
        }
    };
    let (mut sold, mut rejected) = (0, 0);
    for &r in &requests {
        let resolved = resolve_ncp(&pricing, &transform, r);
        let kernel = resolved.clone().map(|ncp| pricing.price_at(1.0 / ncp));
        let quote = broker.price_batch(kind, &[r]).unwrap().remove(0);
        same(
            "price_batch",
            r,
            &kernel,
            &quote.as_ref().map(|q| q.price).map_err(Clone::clone),
        );
        same(
            "sold_price",
            r,
            &kernel,
            &sold_price(&pricing, &transform, r),
        );
        // The curve samples the listing at the resolved NCP (an `AtNcp`
        // request is its own sample, rejections included).
        let sample = match (r, &resolved) {
            (PurchaseRequest::AtNcp(ncp), _) | (_, &Ok(ncp)) => Some(ncp),
            _ => None,
        };
        if let Some(ncp) = sample {
            let curve = broker.price_error_curve(kind, &[ncp]).map(|c| c.points[0]);
            let curve_price = curve.as_ref().map(|p| p.price).map_err(Clone::clone);
            same("price_error_curve", r, &kernel, &curve_price);
            if let (Ok(p), Ok(q)) = (curve, &quote) {
                assert_eq!(p.ncp.to_bits(), q.ncp.to_bits(), "{r:?}");
                assert_eq!(
                    p.expected_error.to_bits(),
                    q.expected_error.to_bits(),
                    "{r:?}"
                );
            }
        }
        match kernel {
            Ok(_) => sold += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(
        sold > 500 && rejected > 300,
        "{sold} sold, {rejected} rejected"
    );
    // Error at the noiseless floor needs δ = 0: unachievable everywhere.
    for err in [0.0, base] {
        let r = PurchaseRequest::ErrorBudget(err);
        assert!(matches!(
            sold_price(&pricing, &transform, r),
            Err(MarketError::UnachievableError(_))
        ));
    }
    // The attack probing this listing's error space finds nothing.
    let report = attack_error_space(&pricing, &transform, &AttackConfig::quick(0x0e5_01e));
    assert!(report.is_clean(), "{:?}", report.violations);
    // A kind with no listing has no curve.
    assert!(matches!(
        broker.price_error_curve(ModelKind::LinearSvm, &[1.0]),
        Err(MarketError::UnsupportedModel(_))
    ));
}

/// Differential oracle: the pricing curve and the high-precision reference
/// evaluator agree to 1e-12 (relative) on every optimizer curve, for
/// forward pricing, budget inversion and sold error-budget prices.
#[test]
fn differential_oracle_is_clean_on_optimizer_curves() {
    let curves = [
        solve_bv_dp(&buyer_instance(51, 24)).pricing,
        solve_pi_l2(&price_instance(52, 24)).pricing,
        solve_pi_l1(&price_instance(53, 24)).pricing,
    ];
    for pricing in &curves {
        let report = check_pricing(pricing, &OracleConfig::default());
        assert!(
            report.is_clean(),
            "evaluators diverged (max {:.3e}): {:?}",
            report.max_divergence,
            report.divergences
        );
        let eps = check_error_space(pricing, &SquareLossTransform, &OracleConfig::default());
        assert!(eps.is_clean(), "{:?}", eps.divergences);
    }
}

/// Schedule explorer: 10^4 sampled interleavings of concurrent
/// buy/quote/re-publish/reconcile operations at 2–4 virtual threads all
/// linearize against the single-threaded reference broker.
#[test]
fn schedule_explorer_linearizes_1e4_interleavings() {
    let report = mbp_testkit::explore(&ScheduleConfig {
        seed: 0x0011_ea12,
        interleavings: 10_000,
        threads: 4,
        ops_per_thread: 3,
        faults: false,
    });
    assert_eq!(report.explored, 10_000);
    assert!(
        report.is_linearizable(),
        "{}",
        report.failures.first().expect("failure present")
    );
}

/// Fault-injected schedules (panicking maintenance, mid-publish reader probes)
/// also linearize, and any failure would reproduce from its printed case
/// seed alone.
#[test]
fn fault_injected_schedules_linearize_and_replay_from_seed() {
    let report = mbp_testkit::explore(&ScheduleConfig {
        seed: 0xfa_017,
        interleavings: 500,
        threads: 3,
        ops_per_thread: 5,
        faults: true,
    });
    assert!(
        report.is_linearizable(),
        "{}",
        report.failures.first().expect("failure present")
    );
    // Replay determinism: the documented reproduction path is the seed.
    let a = mbp_testkit::run_case(0xca5e, 3, 5, true).expect("case linearizes");
    let b = mbp_testkit::run_case(0xca5e, 3, 5, true).expect("case linearizes");
    assert_eq!(a, b);
}
