//! Shape assertions for every reproduced table and figure: these encode
//! what "the reproduction holds" means (who wins, monotonicity, growth
//! rates), independent of absolute numbers.

use mbp_bench::experiments::{
    fig10, fig5, fig6, fig7, fig8, fig9, table3, RuntimeScenario, EXPERIMENTS,
};
use mbp_bench::Config;

fn tiny_config() -> Config {
    Config {
        scale: 0.0005,
        reps: 60,
        max_n: 9,
        seed: 20190630,
    }
}

#[test]
fn table3_has_all_six_datasets() {
    let rows = table3(&tiny_config());
    assert_eq!(rows.len(), 6);
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "Simulated1",
            "YearMSD",
            "CASP",
            "Simulated2",
            "CovType",
            "SUSY"
        ]
    );
    for r in &rows {
        assert!(
            r.our_n1 > r.our_n2,
            "{}: split proportions inverted",
            r.name
        );
        assert!(r.our_n1 + r.our_n2 >= 20);
        assert!(r.d > 0);
    }
}

#[test]
fn fig5_shapes() {
    let rows = fig5();
    assert_eq!(rows.len(), 5);
    // (a) valuation-as-price is the only approach with arbitrage.
    assert!(rows[0].has_arbitrage);
    for r in &rows[1..] {
        assert!(!r.has_arbitrage, "{} should be arbitrage-free", r.approach);
    }
    // (d) exact beats every arbitrage-free alternative; (e) MBP is within
    // a factor 2 and close in practice.
    let exact = rows[3].revenue;
    let mbp = rows[4].revenue;
    for r in &rows[1..3] {
        assert!(r.revenue <= exact + 1e-9);
    }
    assert!(mbp <= exact + 1e-9);
    assert!(mbp >= exact / 2.0);
    assert!(mbp >= 0.9 * exact, "MBP {mbp} not close to exact {exact}");
    // Both optimal and MBP serve everyone in this instance.
    assert_eq!(rows[3].affordability, 1.0);
    assert_eq!(rows[4].affordability, 1.0);
}

#[test]
fn fig6_error_curves_decrease_in_inverse_ncp() {
    let cfg = tiny_config();
    let points = fig6(&cfg);
    // 3 regression curves + 3 classification datasets × 2 errors = 9 curves
    // of 10 points each.
    assert_eq!(points.len(), 90);
    use std::collections::BTreeMap;
    let mut curves: BTreeMap<(String, &str), Vec<(f64, f64)>> = BTreeMap::new();
    for p in &points {
        curves
            .entry((p.dataset.clone(), p.error_kind))
            .or_default()
            .push((p.inv_ncp, p.expected_error));
    }
    assert_eq!(curves.len(), 9);
    for ((ds, err), mut pts) in curves {
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Non-increasing in 1/NCP, with a substantial overall drop.
        for w in pts.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "{ds}/{err}: error increased along 1/NCP: {pts:?}"
            );
        }
        assert!(pts[0].1 > pts[9].1, "{ds}/{err}: curve is flat: {pts:?}");
    }
}

fn assert_mbp_dominates(scenarios: &[mbp_bench::experiments::RevenueScenario]) {
    for s in scenarios {
        let mbp = &s.outcomes[0];
        assert_eq!(mbp.method, "MBP");
        for o in &s.outcomes[1..] {
            assert!(
                mbp.revenue >= o.revenue - 1e-9,
                "{}: {} revenue {} beat MBP {}",
                s.label,
                o.method,
                o.revenue,
                mbp.revenue
            );
        }
        // MBP's affordability is at least that of every baseline except
        // possibly MedC (which explicitly optimizes affordability).
        for o in &s.outcomes[1..] {
            if o.method != "MedC" {
                assert!(
                    mbp.affordability >= o.affordability - 1e-9,
                    "{}: {} affordability {} beat MBP {}",
                    s.label,
                    o.method,
                    o.affordability,
                    mbp.affordability
                );
            }
        }
    }
}

#[test]
fn fig7_mbp_dominates_baselines() {
    let scenarios = fig7(&tiny_config());
    assert_eq!(scenarios.len(), 2);
    assert_mbp_dominates(&scenarios);
    // Concave value curves are subadditive, so MBP matches the curve where
    // it serves buyers and extracts (weakly) more than in the convex panel
    // relative to the total surplus.
    let concave = &scenarios[1];
    let total_surplus: f64 = concave.buyers.iter().map(|b| b.demand * b.valuation).sum();
    let mbp_rev = concave.outcomes[0].revenue;
    assert!(
        mbp_rev > 0.85 * total_surplus,
        "concave panel: MBP {mbp_rev} should capture most of surplus {total_surplus}"
    );
}

#[test]
fn fig8_mbp_dominates_baselines() {
    let scenarios = fig8(&tiny_config());
    assert_eq!(scenarios.len(), 2);
    assert_mbp_dominates(&scenarios);
}

/// Timed runs of a runtime sweep: each runtime compared below is the
/// median of this many readings, so one slow reading cannot flip a ratio.
const TIMED_RUNS: usize = 5;

/// `TIMED_RUNS` runs of `sweep`.
fn timed_runs(sweep: impl Fn() -> Vec<RuntimeScenario>) -> Vec<Vec<RuntimeScenario>> {
    (0..TIMED_RUNS).map(|_| sweep()).collect()
}

fn assert_runtime_shapes(runs: &[Vec<RuntimeScenario>], max_n: usize) {
    for (si, s) in runs[0].iter().enumerate() {
        // Per n: MILP ≥ MBP ≥ baselines in revenue; MILP within 2× of MBP.
        let mut by_n: std::collections::BTreeMap<usize, Vec<&mbp_bench::experiments::RuntimeRow>> =
            Default::default();
        for r in &s.rows {
            by_n.entry(r.n).or_default().push(r);
        }
        for (n, rows) in &by_n {
            let get = |m: &str| rows.iter().find(|r| r.method == m).unwrap();
            let mbp = get("MBP");
            let milp = get("MILP");
            assert!(
                milp.revenue >= mbp.revenue - 1e-6,
                "{} n={n}: MILP {} < MBP {}",
                s.label,
                milp.revenue,
                mbp.revenue
            );
            assert!(
                mbp.revenue >= milp.revenue / 2.0 - 1e-6,
                "{} n={n}: factor 2 violated",
                s.label
            );
            for b in ["Lin", "MaxC", "MedC", "OptC"] {
                assert!(
                    mbp.revenue >= get(b).revenue - 1e-6,
                    "{} n={n}: {b} beat MBP",
                    s.label
                );
            }
        }
        // Exponential-vs-polynomial, counted: the exact solver's
        // branch-and-bound nodes grow faster from n = 3 to max_n than the
        // DP's n·(n+1) cells, and outnumber them at max_n.
        let work = |n: usize, m: &str| {
            s.rows
                .iter()
                .find(|r| r.n == n && r.method == m)
                .unwrap()
                .work
        };
        let milp_growth = work(max_n, "MILP") as f64 / work(3, "MILP") as f64;
        let dp_growth = work(max_n, "MBP") as f64 / work(3, "MBP") as f64;
        assert!(
            milp_growth > 4.0 * dp_growth,
            "{}: MILP nodes grew {milp_growth:.1}x from n = 3 to {max_n}, DP cells {dp_growth:.1}x",
            s.label
        );
        assert!(
            work(max_n, "MILP") > work(max_n, "MBP"),
            "{}: MILP explored fewer nodes than the DP's cells at n = {max_n}",
            s.label
        );
        // Exponential-vs-polynomial: the MILP runtime at max_n dwarfs its
        // runtime at small n by a much larger factor than MBP's. Each
        // runtime is the median over the timed runs.
        let runtime = |n: usize, m: &str| {
            let mut t: Vec<f64> = runs
                .iter()
                .map(|run| {
                    run[si]
                        .rows
                        .iter()
                        .find(|r| r.n == n && r.method == m)
                        .unwrap()
                        .runtime_s
                })
                .collect();
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let milp_first = runtime(3, "MILP");
        let milp_last = runtime(max_n, "MILP");
        let mbp_last = runtime(max_n, "MBP");
        assert!(
            milp_last > 4.0 * milp_first,
            "{}: MILP runtime did not grow ({milp_first} -> {milp_last})",
            s.label
        );
        assert!(
            milp_last > 3.0 * mbp_last,
            "{}: MILP ({milp_last}) should be much slower than MBP ({mbp_last}) at n = {max_n}",
            s.label
        );
    }
}

#[test]
fn fairness_sweep_traces_a_pareto_frontier() {
    let rows = mbp_bench::experiments::fairness_sweep(&tiny_config());
    assert!(rows.len() >= 5);
    for w in rows.windows(2) {
        assert!(
            w[1].revenue <= w[0].revenue + 1e-9,
            "revenue rose with lambda"
        );
        assert!(
            w[1].affordability >= w[0].affordability - 1e-9,
            "affordability fell with lambda"
        );
    }
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(last.affordability > first.affordability);
    assert!(last.revenue < first.revenue);
}

#[test]
fn simulation_realizes_predictions() {
    let rows = mbp_bench::experiments::simulation_experiment(&tiny_config());
    assert_eq!(rows.len(), 2);
    for r in &rows {
        let rel = (r.realized_revenue - r.predicted_revenue).abs() / r.predicted_revenue.max(1e-9);
        assert!(
            rel < 0.08,
            "{}: predicted {} vs realized {}",
            r.label,
            r.predicted_revenue,
            r.realized_revenue
        );
        let gap = (r.realized_affordability - r.predicted_affordability).abs();
        assert!(gap < 0.05, "{}: affordability gap {gap}", r.label);
    }
    // MBP (first row) beats the constant-price baseline in realized revenue.
    assert!(rows[0].realized_revenue > rows[1].realized_revenue);
}

#[test]
fn adaptive_pricing_learns() {
    let (rows, oracle) = mbp_bench::experiments::adaptive_experiment(&tiny_config());
    assert!(rows.len() >= 10);
    let first = rows.first().unwrap();
    let late = &rows[rows.len() - 3..];
    let late_rev: f64 = late.iter().map(|r| r.revenue_per_buyer).sum::<f64>() / 3.0;
    assert!(late_rev > first.revenue_per_buyer, "no revenue improvement");
    assert!(
        late_rev > 0.6 * oracle,
        "late revenue {late_rev} vs oracle {oracle}"
    );
    assert!(rows.last().unwrap().estimate_rmse < 0.5 * first.estimate_rmse);
}

#[test]
fn transform_ablation_shapes() {
    let rows = mbp_bench::experiments::transform_ablation(&tiny_config());
    assert!(rows.len() >= 5);
    // Monte-Carlo truth grows with noise.
    for w in rows.windows(2) {
        assert!(w[1].monte_carlo > w[0].monte_carlo);
    }
    // Delta method is accurate at small noise and strictly worse at the
    // largest noise level (it is a second-order expansion).
    let rel = |r: &mbp_bench::experiments::TransformRow| {
        (r.delta_method - r.monte_carlo).abs() / r.monte_carlo
    };
    assert!(
        rel(&rows[0]) < 0.01,
        "small-noise rel err {}",
        rel(&rows[0])
    );
    assert!(rel(rows.last().unwrap()) > rel(&rows[0]));
    // The empirical transform tracks truth everywhere within MC noise.
    for r in &rows {
        let e = (r.empirical - r.monte_carlo).abs() / r.monte_carlo;
        assert!(e < 0.1, "empirical rel err {e} at {}", r.relative_ncp);
    }
}

#[test]
fn fig9_runtime_and_revenue_shapes() {
    let cfg = tiny_config();
    let runs = timed_runs(|| fig9(&cfg));
    assert_eq!(runs[0].len(), 2);
    assert_runtime_shapes(&runs, cfg.max_n);
}

#[test]
fn fig10_runtime_and_revenue_shapes() {
    let cfg = tiny_config();
    let runs = timed_runs(|| fig10(&cfg));
    assert_eq!(runs[0].len(), 2);
    assert_runtime_shapes(&runs, cfg.max_n);
}

#[test]
fn experiment_list_builds_well_formed_tables_for_every_experiment() {
    let cfg = tiny_config();
    let mut names = std::collections::BTreeSet::new();
    let mut titles = std::collections::BTreeSet::new();
    for e in EXPERIMENTS {
        assert!(names.insert(e.name), "experiment {} listed twice", e.name);
        let tables = (e.tables)(&cfg);
        assert!(!tables.is_empty(), "{}: no table", e.name);
        for t in &tables {
            assert!(
                !t.header.is_empty(),
                "{}: {:?} has no header",
                e.name,
                t.title
            );
            assert!(!t.rows.is_empty(), "{}: {:?} has no rows", e.name, t.title);
            for row in &t.rows {
                assert_eq!(
                    row.len(),
                    t.header.len(),
                    "{}: {:?} row {row:?} does not match header {:?}",
                    e.name,
                    t.title,
                    t.header
                );
            }
            assert!(
                titles.insert(t.title.clone()),
                "duplicate title {:?}",
                t.title
            );
        }
    }

    // Every public function of the experiments module is an experiment,
    // and an entry of the list calls each one.
    let src = include_str!("../crates/bench/src/experiments.rs");
    let (defs, rest) = src
        .split_once("pub const EXPERIMENTS")
        .expect("experiments.rs defines the EXPERIMENTS list");
    assert!(!rest.contains("pub fn "), "public function after the list");
    let list = rest.split_once("];").expect("the list ends").0;
    let functions: Vec<&str> = defs
        .split("pub fn ")
        .skip(1)
        .map(|rest| rest.split(['(', '<']).next().unwrap_or_default())
        .collect();
    assert!(functions.contains(&"transform_ablation"), "{functions:?}");
    for f in &functions {
        assert!(
            list.contains(&format!("{f}(")),
            "experiment {f} is not in EXPERIMENTS"
        );
    }
}
