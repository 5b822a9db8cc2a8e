//! The verification layer, end-to-end: the mbp-testkit attack engine,
//! differential oracles, and schedule explorer run against *real*
//! optimizer output and the real concurrent broker — the acceptance
//! checks of the testkit PR.
//!
//! Theorems 5/6 say optimizer-emitted curves are arbitrage-free; the
//! attack engine gets 10^5 randomized trials per curve family to disagree.
//! The differential oracle holds the scan path, the compiled table, and
//! the Kahan-summed reference evaluator to 1e-12 relative agreement. The
//! schedule explorer samples 10^4 interleavings of concurrent broker
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

/// Differential oracle: scan path, compiled table, and the high-precision
/// reference evaluator agree to 1e-12 (relative) on every optimizer
/// curve, for both forward pricing and budget inversion.
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
