//! Verification-layer throughput baseline (`BENCH_testkit.json`).
//!
//! Times the three mbp-testkit engines against a realistic dense curve so
//! regressions in verification throughput are visible next to the serving
//! and parallel baselines:
//!
//! * **attack-curve / attack-error-space** — randomized arbitrage trials
//!   per second against the arbitrage-free √-shaped curve (and through the
//!   identity error transform). A *clean* run is part of the contract: a
//!   found violation fails the baseline.
//! * **oracle** — differential pricing comparisons per second (scan vs
//!   compiled table vs Kahan-summed reference).
//! * **schedule** — linearizability cases per second on the concurrent
//!   broker at 2–4 virtual threads.
//!
//! Every phase runs [`REPEATS`] times from the same seed; each metric is
//! the median over those runs, and `deterministic` asserts every run
//! produced the first run's work digest.

use crate::record::{per_sec, repeat, Record, Spread};
use mbp_core::error::SquareLossTransform;
use mbp_core::PricingFunction;
use mbp_testkit::{
    attack_curve, attack_error_space, check_pricing, explore, AttackConfig, OracleConfig,
    ScheduleConfig,
};
use std::time::Instant;

/// Runs of every phase; each metric is the median over them.
pub const REPEATS: usize = 3;

/// Times `work` (returning units done, findings and a digest) over
/// [`REPEATS`] runs and adds its throughput to `rec`. Returns whether
/// every run was clean and reproduced the first run's output.
fn timed(rec: &mut Record, name: &str, mut work: impl FnMut() -> (u64, u64, f64)) -> (bool, bool) {
    let runs = repeat(REPEATS, |_| {
        let t0 = Instant::now();
        let out = work();
        (t0.elapsed().as_secs_f64(), out)
    });
    let first = runs[0].1;
    let units = Spread::of(
        runs.iter()
            .map(|(s, (units, _, _))| per_sec(*units as usize, *s)),
    );
    rec.throughput(format!("{name}.units_per_sec"), "units/s", units);
    (
        runs.iter().all(|(_, (_, findings, _))| *findings == 0),
        runs.iter().all(|(_, out)| *out == first),
    )
}

/// The benchmark curve: arbitrage-free `p̄(x) = 10·√x` on 128 knots.
fn bench_curve() -> PricingFunction {
    let grid: Vec<f64> = (1..=128).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

/// Runs the verification baseline with `trials` attack trials per engine.
pub fn run(trials: u64) -> Record {
    let _span = mbp_obs::span("mbp.bench.attackbench");
    let trials = trials.max(1_000);
    let curve = bench_curve();
    let mut rec = Record::new(&[("trials", trials as f64), ("repeats", REPEATS as f64)]);

    let attack = timed(&mut rec, "attack-curve", || {
        let report = attack_curve(
            &curve,
            &AttackConfig {
                seed: 0xbe_ac4,
                trials,
                ..AttackConfig::default()
            },
        );
        (
            report.trials,
            report.violations.len() as u64,
            report.checks as f64,
        )
    });

    let eps = timed(&mut rec, "attack-error-space", || {
        let report = attack_error_space(
            &curve,
            &SquareLossTransform,
            &AttackConfig {
                seed: 0xbe_ac5,
                trials,
                ..AttackConfig::default()
            },
        );
        (
            report.trials,
            report.violations.len() as u64,
            report.checks as f64,
        )
    });

    let oracle = timed(&mut rec, "oracle", || {
        let report = check_pricing(
            &curve,
            &OracleConfig {
                probes: trials as usize,
                ..OracleConfig::default()
            },
        );
        (
            report.comparisons,
            report.divergences.len() as u64,
            report.max_divergence,
        )
    });

    let cases = (trials / 20).clamp(50, 5_000);
    let schedule = timed(&mut rec, "schedule", || {
        let report = explore(&ScheduleConfig {
            seed: 0xbe_ac6,
            interleavings: cases,
            threads: 4,
            ops_per_thread: 3,
            faults: false,
        });
        (
            report.explored,
            report.failures.len() as u64,
            report.steps as f64,
        )
    });

    let phases = [attack, eps, oracle, schedule];
    rec.invariant("clean", phases.iter().all(|p| p.0));
    rec.invariant("deterministic", phases.iter().all(|p| p.1));
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_deterministic() {
        let rec = run(1_000);
        crate::record::assert_same_metrics(&rec, "BENCH_testkit.json");
        assert!(
            rec.holds("clean"),
            "an engine found a violation on sound inputs"
        );
        assert!(
            rec.holds("deterministic"),
            "a phase failed to reproduce its digest"
        );
        for m in rec
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".units_per_sec"))
        {
            assert!(rec.median(&m.name).expect("measured") > 0.0, "{}", m.name);
        }
    }
}
