//! The experiment implementations, one function per paper table/figure,
//! and [`EXPERIMENTS`]: the one ordered list that renders each
//! experiment's rows as the tables `all` prints.

use crate::report::{fmt, fmt_secs, Table};
use crate::Config;
use mbp_core::arbitrage::check;
use mbp_core::error::EmpiricalTransform;
use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::mechanism::GaussianMechanism;
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::{
    affordability, revenue, solve_bv_dp, solve_bv_exact, welfare, Baseline, BuyerPoint,
};
use mbp_data::catalog::{self, Task};
use mbp_ml::metrics::TestError;
use mbp_ml::train::{newton_logistic, ridge_closed_form, TrainConfig};
use mbp_ml::LogisticLoss;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset name.
    pub name: String,
    /// Task label ("Regression"/"Classification").
    pub task: &'static str,
    /// Paper's train size.
    pub paper_n1: usize,
    /// Paper's test size.
    pub paper_n2: usize,
    /// Our materialized train size at the configured scale.
    pub our_n1: usize,
    /// Our materialized test size.
    pub our_n2: usize,
    /// Feature count.
    pub d: usize,
}

/// Regenerates Table 3: the dataset catalog, materialized at `cfg.scale`.
pub fn table3(cfg: &Config) -> Vec<Table3Row> {
    catalog::TABLE3
        .iter()
        .map(|spec| {
            let tt = catalog::load(spec, cfg.scale, cfg.seed);
            let (n1, n2) = tt.sizes();
            Table3Row {
                name: spec.name.to_string(),
                task: match spec.task {
                    Task::Regression => "Regression",
                    Task::Classification => "Classification",
                },
                paper_n1: spec.paper_n_train,
                paper_n2: spec.paper_n_test,
                our_n1: n1,
                our_n2: n2,
                d: spec.d,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6: error transformation curves
// ---------------------------------------------------------------------------

/// One sampled point of an error-transformation curve.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Dataset name.
    pub dataset: String,
    /// Error function label.
    pub error_kind: &'static str,
    /// Inverse NCP (the x-axis of Figure 6).
    pub inv_ncp: f64,
    /// Monte-Carlo expected error on the test split.
    pub expected_error: f64,
}

/// The inverse-NCP axis used throughout the experiments (the paper's
/// `1/NCP ∈ {10, 20, …, 100}`).
fn inv_ncp_axis() -> Vec<f64> {
    (1..=10).map(|i| (i * 10) as f64).collect()
}

/// Maps an inverse-NCP axis value to an actual δ for a given optimal model.
///
/// The paper's MATLAB prototype used unstandardized features with large
/// coefficients, so raw `δ = 1/x` produced visible error changes over
/// `x ∈ [10, 100]`. Our data is standardized, so we calibrate the noise to
/// the model: `δ(x) = (10/x) · ‖h*‖²` — at `x = 10` the injected noise has
/// the same energy as the model itself, at `x = 100` a tenth of it. This is
/// a pure units choice on the δ axis and does not affect any pricing result
/// (pricing operates on `x` directly).
fn ncp_for_axis(x: f64, h_star_sq_norm: f64) -> f64 {
    10.0 * h_star_sq_norm.max(1e-9) / x
}

/// Regenerates Figure 6: for each Table 3 dataset, the expected test error
/// of the Gaussian release as a function of the inverse NCP — square loss
/// for the regression rows, logistic and 0/1 loss for the classification
/// rows.
pub fn fig6(cfg: &Config) -> Vec<Fig6Point> {
    let axis = inv_ncp_axis();
    let mut out = Vec::new();
    for spec in &catalog::TABLE3 {
        let tt = catalog::load(spec, cfg.scale, cfg.seed);
        let (h_star, errors): (_, Vec<TestError>) = match spec.task {
            Task::Regression => (
                ridge_closed_form(&tt.train, 1e-6).expect("regression training failed"),
                vec![TestError::SquareLoss],
            ),
            Task::Classification => (
                newton_logistic(
                    &LogisticLoss::ridge(1e-4),
                    &tt.train,
                    TrainConfig::default(),
                )
                .weights,
                vec![TestError::LogisticLoss, TestError::ZeroOne],
            ),
        };
        let kappa = h_star.norm2_squared();
        let ncp_grid: Vec<f64> = axis
            .iter()
            .rev() // δ ascending (axis descending)
            .map(|&x| ncp_for_axis(x, kappa))
            .collect();
        for error_kind in errors {
            let transform = EmpiricalTransform::estimate(
                &GaussianMechanism,
                &h_star,
                &tt.test,
                error_kind,
                &ncp_grid,
                cfg.reps,
                cfg.seed ^ 0xf166,
            );
            let curve: Vec<(f64, f64)> = transform.curve().collect();
            // δ ascending ⇒ axis descending; report in axis order.
            for (i, &x) in axis.iter().enumerate() {
                let (_, err) = curve[curve.len() - 1 - i];
                out.push(Fig6Point {
                    dataset: spec.name.to_string(),
                    error_kind: error_kind.name(),
                    inv_ncp: x,
                    expected_error: err,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 7–8: revenue and affordability gain
// ---------------------------------------------------------------------------

/// Outcome of one pricing method on one scenario.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method label ("MBP", "Lin", "MaxC", "MedC", "OptC", "MILP").
    pub method: &'static str,
    /// Total revenue against the scenario's buyer population.
    pub revenue: f64,
    /// Affordability ratio.
    pub affordability: f64,
    /// Buyer surplus left on the table (welfare kept by buyers).
    pub buyer_surplus: f64,
    /// Welfare efficiency: (revenue + surplus) / total surplus.
    pub efficiency: f64,
    /// Prices at the scenario grid points.
    pub prices: Vec<f64>,
}

/// One panel of Figures 7/8: a buyer population and every method's outcome.
#[derive(Debug, Clone)]
pub struct RevenueScenario {
    /// Panel label.
    pub label: String,
    /// Inverse-NCP grid.
    pub grid: Vec<f64>,
    /// Buyer population on the grid.
    pub buyers: Vec<BuyerPoint>,
    /// Per-method outcomes (MBP first).
    pub outcomes: Vec<MethodOutcome>,
}

fn run_scenario(label: String, buyers: Vec<BuyerPoint>) -> RevenueScenario {
    let g: Vec<f64> = buyers.iter().map(|p| p.a).collect();
    let mut outcomes = Vec::new();
    let mbp = solve_bv_dp(&buyers);
    let w = welfare(&mbp.pricing, &buyers);
    outcomes.push(MethodOutcome {
        method: "MBP",
        revenue: w.revenue,
        affordability: w.affordability,
        buyer_surplus: w.buyer_surplus,
        efficiency: w.efficiency,
        prices: mbp.pricing.prices().to_vec(),
    });
    outcomes.extend(Baseline::ALL.into_iter().map(|b| {
        let pf = b.pricing(&buyers);
        let w = welfare(&pf, &buyers);
        MethodOutcome {
            method: b.name(),
            revenue: w.revenue,
            affordability: w.affordability,
            buyer_surplus: w.buyer_surplus,
            efficiency: w.efficiency,
            prices: g.iter().map(|&x| pf.price_at(x)).collect(),
        }
    }));
    RevenueScenario {
        label,
        grid: g,
        buyers,
        outcomes,
    }
}

/// Regenerates Figure 7: fixed (unimodal) demand, varying buyer value
/// curve — panel (a) convex, panel (b) concave.
pub fn fig7(_cfg: &Config) -> Vec<RevenueScenario> {
    let g = grid(20.0, 100.0, 9);
    let demand = DemandCurve::new(DemandShape::Peak {
        center: 0.6,
        width: 0.35,
    });
    let panels = [
        ("convex value curve", ValueShape::Convex { power: 2.5 }),
        ("concave value curve", ValueShape::Concave { power: 2.5 }),
    ];
    panels
        .into_iter()
        .map(|(label, shape)| {
            let value = ValueCurve::new(shape, 2.0, 100.0);
            let buyers = mbp_core::market::curves::buyer_points(&g, &value, &demand)
                .expect("experiment grid is valid");
            run_scenario(format!("Fig7 {label}"), buyers)
        })
        .collect()
}

/// Regenerates Figure 8: fixed (linear) value curve, varying demand —
/// panel (a) mid-peaked, panel (b) bimodal.
pub fn fig8(_cfg: &Config) -> Vec<RevenueScenario> {
    let g = grid(20.0, 100.0, 9);
    let value = ValueCurve::new(ValueShape::Linear, 2.0, 100.0);
    let panels = [
        (
            "mid-peaked demand",
            DemandShape::Peak {
                center: 0.5,
                width: 0.18,
            },
        ),
        ("bimodal demand", DemandShape::Bimodal { width: 0.15 }),
    ];
    panels
        .into_iter()
        .map(|(label, shape)| {
            let demand = DemandCurve::new(shape);
            let buyers = mbp_core::market::curves::buyer_points(&g, &value, &demand)
                .expect("experiment grid is valid");
            run_scenario(format!("Fig8 {label}"), buyers)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 9–10: runtime sweeps vs the exact (MILP) solver
// ---------------------------------------------------------------------------

/// One `(n, method)` measurement of the runtime sweep.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Number of price points.
    pub n: usize,
    /// Method label.
    pub method: &'static str,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Deterministic work count behind `runtime_s`: DP cells n·(n+1) for
    /// MBP, branch-and-bound nodes for MILP, 0 for the baselines.
    pub work: u64,
    /// Revenue achieved.
    pub revenue: f64,
    /// Affordability ratio achieved.
    pub affordability: f64,
}

/// One panel of Figures 9/10.
#[derive(Debug, Clone)]
pub struct RuntimeScenario {
    /// Panel label.
    pub label: String,
    /// Sweep rows, grouped by `n` then method.
    pub rows: Vec<RuntimeRow>,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

// The per-method wall times ARE the figure's y-axis, so the solvers run
// one after another; population metrics are evaluated after each timed
// section.
fn runtime_sweep(
    label: String,
    value: ValueCurve,
    demand: DemandCurve,
    max_n: usize,
) -> RuntimeScenario {
    let mut rows = Vec::new();
    for n in 2..=max_n {
        let g = grid(20.0, 100.0, n);
        let buyers = mbp_core::market::curves::buyer_points(&g, &value, &demand)
            .expect("experiment grid is valid");
        // MBP: the O(n²) DP.
        let (mbp, t_mbp) = time(|| solve_bv_dp(&buyers));
        rows.push(RuntimeRow {
            n,
            method: "MBP",
            runtime_s: t_mbp,
            work: (n * (n + 1)) as u64,
            revenue: revenue(&mbp.pricing, &buyers),
            affordability: affordability(&mbp.pricing, &buyers),
        });
        // Naive baselines.
        for b in Baseline::ALL {
            let (pf, t) = time(|| b.pricing(&buyers));
            rows.push(RuntimeRow {
                n,
                method: b.name(),
                runtime_s: t,
                work: 0,
                revenue: revenue(&pf, &buyers),
                affordability: affordability(&pf, &buyers),
            });
        }
        // MILP stand-in: the exact exponential solver. Quantization scale 1
        // keeps grid points integral (they are multiples of 10/(n−1)·…, so
        // use a finer scale to keep them distinct for every n).
        let (exact, t_exact) = time(|| solve_bv_exact(&buyers, 2.0));
        rows.push(RuntimeRow {
            n,
            method: "MILP",
            runtime_s: t_exact,
            work: exact.nodes_explored,
            revenue: exact.objective,
            affordability: affordability(&exact.pricing, &buyers),
        });
    }
    RuntimeScenario { label, rows }
}

/// Regenerates Figure 9: runtime/revenue/affordability vs number of price
/// points, fixed demand, two valuation shapes.
pub fn fig9(cfg: &Config) -> Vec<RuntimeScenario> {
    let demand = DemandCurve::new(DemandShape::Peak {
        center: 0.5,
        width: 0.25,
    });
    vec![
        runtime_sweep(
            "Fig9 convex value curve".into(),
            ValueCurve::new(ValueShape::Convex { power: 2.5 }, 2.0, 100.0),
            demand,
            cfg.max_n,
        ),
        runtime_sweep(
            "Fig9 concave value curve".into(),
            ValueCurve::new(ValueShape::Concave { power: 2.5 }, 2.0, 100.0),
            demand,
            cfg.max_n,
        ),
    ]
}

/// Regenerates Figure 10: same sweep with fixed value curve and varying
/// demand shape.
pub fn fig10(cfg: &Config) -> Vec<RuntimeScenario> {
    let value = ValueCurve::new(ValueShape::Linear, 2.0, 100.0);
    vec![
        runtime_sweep(
            "Fig10 mid-peaked demand".into(),
            value,
            DemandCurve::new(DemandShape::Peak {
                center: 0.5,
                width: 0.18,
            }),
            cfg.max_n,
        ),
        runtime_sweep(
            "Fig10 bimodal demand".into(),
            value,
            DemandCurve::new(DemandShape::Bimodal { width: 0.15 }),
            cfg.max_n,
        ),
    ]
}

// ---------------------------------------------------------------------------
// Extension experiments (beyond the paper's figures)
// ---------------------------------------------------------------------------

/// One point of the revenue–fairness trade-off sweep.
#[derive(Debug, Clone)]
pub struct FairnessRow {
    /// Scalarization weight λ.
    pub lambda: f64,
    /// Revenue of the λ-optimal pricing.
    pub revenue: f64,
    /// Affordability of the λ-optimal pricing.
    pub affordability: f64,
}

/// Ablation for the paper's Section 7 future-work item: sweeping the
/// fairness weight of [`mbp_core::revenue::solve_bv_dp_fair`] traces the
/// revenue-vs-affordability Pareto frontier on a Figure 7-style scenario.
pub fn fairness_sweep(_cfg: &Config) -> Vec<FairnessRow> {
    let g = grid(20.0, 100.0, 9);
    let buyers = mbp_core::market::curves::buyer_points(
        &g,
        &ValueCurve::new(ValueShape::Convex { power: 2.5 }, 2.0, 100.0),
        &DemandCurve::new(DemandShape::Peak {
            center: 0.6,
            width: 0.35,
        }),
    )
    .expect("experiment grid is valid");
    let mut rows = Vec::new();
    for &lambda in &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
        let sol = mbp_core::revenue::solve_bv_dp_fair(&buyers, lambda);
        rows.push(FairnessRow {
            lambda,
            revenue: revenue(&sol.pricing, &buyers),
            affordability: affordability(&sol.pricing, &buyers),
        });
    }
    rows
}

/// Predicted-vs-realized comparison from a simulated selling season.
#[derive(Debug, Clone)]
pub struct SimulationRow {
    /// Scenario label.
    pub label: String,
    /// Revenue per buyer predicted from the research curves.
    pub predicted_revenue: f64,
    /// Average realized revenue per simulated buyer.
    pub realized_revenue: f64,
    /// Predicted affordability.
    pub predicted_affordability: f64,
    /// Realized affordability.
    pub realized_affordability: f64,
    /// Buyers served.
    pub served: usize,
}

/// End-to-end validation experiment: run a simulated buyer stream through
/// the real broker, listed first at the DP pricing and then at the OptC
/// baseline (the same buyers both times), and compare predicted vs
/// realized revenue/affordability.
pub fn simulation_experiment(cfg: &Config) -> Vec<SimulationRow> {
    use mbp_core::error::SquareLossTransform;
    use mbp_core::market::simulation::{simulate_market, SimulationConfig};
    use mbp_core::market::{Broker, Seller};
    use mbp_ml::ModelKind;
    use mbp_randx::seeded_rng;

    let mut rng = seeded_rng(cfg.seed ^ 0x0513);
    let data = mbp_data::synth::simulated1(2000, 6, 0.5, &mut rng).split(0.75, &mut rng);
    let seller = Seller::new(
        data.clone(),
        grid(10.0, 100.0, 10),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
        DemandCurve::new(DemandShape::Peak {
            center: 0.5,
            width: 0.3,
        }),
    );
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let population = seller.buyer_population();
    let dp = solve_bv_dp(&population).pricing;
    let optc = Baseline::OptC.pricing(&population);
    let mut rows = Vec::new();
    let season_seed = cfg.seed ^ 0x0514;
    for (label, pricing) in [("MBP (DP)", dp), ("OptC baseline", optc)] {
        broker
            .publish(
                ModelKind::LinearRegression,
                pricing,
                Box::new(SquareLossTransform),
            )
            .expect("linear regression is on the menu");
        let out = simulate_market(
            &mut broker,
            &seller,
            ModelKind::LinearRegression,
            SimulationConfig {
                n_buyers: 3000,
                valuation_jitter: 0.0,
            },
            season_seed,
        )
        .expect("simulation failed");
        rows.push(SimulationRow {
            label: label.to_string(),
            predicted_revenue: out.predicted_revenue_per_buyer,
            realized_revenue: out.realized_revenue_per_buyer,
            predicted_affordability: out.predicted_affordability,
            realized_affordability: out.realized_affordability(),
            served: out.served,
        });
    }
    rows
}

/// One row of the error-transform accuracy ablation.
#[derive(Debug, Clone)]
pub struct TransformRow {
    /// Noise level relative to the model energy (`δ / ‖h*‖²`).
    pub relative_ncp: f64,
    /// Monte-Carlo ("ground truth") expected logistic loss.
    pub monte_carlo: f64,
    /// Second-order delta-method prediction.
    pub delta_method: f64,
    /// Empirical-transform interpolation at the same δ.
    pub empirical: f64,
}

/// Ablation of the error-transform design: the cheap analytic delta method
/// versus the Monte-Carlo empirical transform, across noise levels. The
/// quadratic approximation tracks truth at small δ and diverges as noise
/// grows — quantifying when the broker can skip the Monte-Carlo estimate.
pub fn transform_ablation(cfg: &Config) -> Vec<TransformRow> {
    use mbp_core::error::{DeltaMethodTransform, ErrorTransform};
    use mbp_core::mechanism::NoiseMechanism;
    use mbp_randx::seeded_rng;

    let mut rng = seeded_rng(cfg.seed ^ 0x7a0f);
    let ds = mbp_data::synth::simulated2(2000, 6, 0.92, &mut rng);
    let h = newton_logistic(&LogisticLoss::ridge(1e-3), &ds, TrainConfig::default()).weights;
    let kappa = h.norm2_squared();
    let rels: Vec<f64> = vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0];
    let ncps: Vec<f64> = rels.iter().map(|r| r * kappa).collect();
    let delta = DeltaMethodTransform::for_logistic(&ds, &h);
    let empirical = EmpiricalTransform::estimate(
        &GaussianMechanism,
        &h,
        &ds,
        TestError::LogisticLoss,
        &ncps,
        cfg.reps.max(200),
        cfg.seed ^ 0xab1a,
    );
    let mech = GaussianMechanism;
    rels.iter()
        .zip(&ncps)
        .map(|(&rel, &ncp)| {
            // High-replica Monte Carlo as ground truth.
            let reps = 2000;
            let mut acc = 0.0;
            for _ in 0..reps {
                let released = mech.perturb(&h, ncp, &mut rng);
                acc += TestError::LogisticLoss.evaluate(&released, &ds);
            }
            TransformRow {
                relative_ncp: rel,
                monte_carlo: acc / reps as f64,
                delta_method: delta.expected_error(ncp),
                empirical: empirical.expected_error(ncp),
            }
        })
        .collect()
}

/// One epoch row of the adaptive-pricing experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Epoch number (1-based).
    pub epoch: usize,
    /// Realized revenue per buyer that season.
    pub revenue_per_buyer: f64,
    /// Acceptance rate that season.
    pub acceptance_rate: f64,
    /// RMSE of the valuation estimate vs truth.
    pub estimate_rmse: f64,
}

/// Extension experiment: dynamic pricing when the seller's market research
/// is wrong by 3×. Each epoch posts DP-optimal (arbitrage-free) prices for
/// the current estimate and updates from observed acceptances; the oracle
/// revenue (perfect research, no jitter) is returned for reference.
pub fn adaptive_experiment(cfg: &Config) -> (Vec<AdaptiveRow>, f64) {
    use mbp_core::market::epochs::{run_adaptive_market, EpochConfig};
    use mbp_randx::seeded_rng;

    let g = grid(10.0, 100.0, 10);
    let truth = mbp_core::market::curves::buyer_points(
        &g,
        &ValueCurve::new(ValueShape::Concave { power: 2.0 }, 10.0, 100.0),
        &DemandCurve::new(DemandShape::Uniform),
    )
    .expect("experiment grid is valid");
    let bad_guess: Vec<f64> = truth.iter().map(|p| p.valuation / 3.0).collect();
    let mut rng = seeded_rng(cfg.seed ^ 0xada0);
    let reports = run_adaptive_market(
        &truth,
        &bad_guess,
        EpochConfig {
            epochs: 30,
            buyers_per_epoch: 2000,
            learning_rate: 0.4,
            valuation_jitter: 0.05,
        },
        &mut rng,
    );
    let oracle = solve_bv_dp(&truth);
    let oracle_rev = revenue(&oracle.pricing, &truth);
    (
        reports
            .into_iter()
            .map(|r| AdaptiveRow {
                epoch: r.epoch,
                revenue_per_buyer: r.revenue_per_buyer,
                acceptance_rate: r.acceptance_rate,
                estimate_rmse: r.estimate_rmse,
            })
            .collect(),
        oracle_rev,
    )
}

// ---------------------------------------------------------------------------
// Figure 5: the worked 4-point example
// ---------------------------------------------------------------------------

/// One approach's outcome on the Figure 5 instance.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Approach label (panel letter + name).
    pub approach: &'static str,
    /// Prices at `a = 1, 2, 3, 4`.
    pub prices: Vec<f64>,
    /// Revenue against the instance's buyers.
    pub revenue: f64,
    /// Affordability ratio.
    pub affordability: f64,
    /// Whether [`check`] found an attack against this pricing.
    pub has_arbitrage: bool,
}

/// The Figure 5 instance: `a = 1..4`, `b = 0.25` each,
/// `v = (100, 150, 280, 350)`.
fn figure5_instance() -> Vec<BuyerPoint> {
    vec![
        BuyerPoint::new(1.0, 100.0, 0.25),
        BuyerPoint::new(2.0, 150.0, 0.25),
        BuyerPoint::new(3.0, 280.0, 0.25),
        BuyerPoint::new(4.0, 350.0, 0.25),
    ]
}

/// Regenerates Figure 5: the five pricing approaches on the worked example,
/// with an arbitrage check of each.
pub fn fig5() -> Vec<Fig5Row> {
    let buyers = figure5_instance();
    let g: Vec<f64> = buyers.iter().map(|p| p.a).collect();
    let mut rows = Vec::new();
    let mut push = |approach: &'static str, pf: PricingFunction, buyers: &[BuyerPoint]| {
        rows.push(Fig5Row {
            approach,
            prices: g.iter().map(|&x| pf.price_at(x)).collect(),
            revenue: revenue(&pf, buyers),
            affordability: affordability(&pf, buyers),
            has_arbitrage: check(&pf).is_err(),
        });
    };
    // (a) price = valuation: maximal revenue on paper, but arbitrageable.
    let naive =
        PricingFunction::from_points(g.clone(), buyers.iter().map(|p| p.valuation).collect())
            .expect("valid points");
    push("(a) valuation-as-price", naive, &buyers);
    // (b) constant price (OptC).
    push(
        "(b) constant (OptC)",
        Baseline::OptC.pricing(&buyers),
        &buyers,
    );
    // (c) linear pricing.
    push("(c) linear (Lin)", Baseline::Lin.pricing(&buyers), &buyers);
    // (d) revenue-optimal arbitrage-free (the coNP-hard problem, solved
    // exactly by branch and bound).
    let exact = solve_bv_exact(&buyers, 1.0);
    push("(d) optimal (exact)", exact.pricing, &buyers);
    // (e) the paper's polynomial-time approximation.
    let dp = solve_bv_dp(&buyers);
    push("(e) MBP (approx)", dp.pricing, &buyers);
    rows
}

// ---------------------------------------------------------------------------
// The experiment list: each experiment's tables, written once
// ---------------------------------------------------------------------------

/// One experiment of the suite: its phase name and the one builder of the
/// tables it prints.
#[derive(Debug)]
pub struct Experiment {
    /// Phase name in `all`'s metrics artifact.
    pub name: &'static str,
    /// Runs the experiment and renders its rows as tables.
    pub tables: fn(&Config) -> Vec<Table>,
}

/// Every experiment, in report order. Each entry calls its public
/// experiment function above and renders the rows with one of the table
/// builders below.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table3",
        tables: |cfg| vec![table3_table(cfg, table3(cfg))],
    },
    Experiment {
        name: "fig5",
        tables: |_| vec![fig5_table(fig5())],
    },
    Experiment {
        name: "fig6",
        tables: |cfg| vec![fig6_table(cfg, fig6(cfg))],
    },
    Experiment {
        name: "fig7",
        tables: |cfg| fig7(cfg).iter().map(revenue_table).collect(),
    },
    Experiment {
        name: "fig8",
        tables: |cfg| fig8(cfg).iter().map(revenue_table).collect(),
    },
    Experiment {
        name: "fig9",
        tables: |cfg| fig9(cfg).iter().map(runtime_table).collect(),
    },
    Experiment {
        name: "fig10",
        tables: |cfg| fig10(cfg).iter().map(runtime_table).collect(),
    },
    Experiment {
        name: "fairness",
        tables: |cfg| vec![fairness_table(&fairness_sweep(cfg))],
    },
    Experiment {
        name: "simulation",
        tables: |cfg| vec![simulation_table(simulation_experiment(cfg))],
    },
    Experiment {
        name: "adaptive",
        tables: |cfg| vec![adaptive_table(adaptive_experiment(cfg))],
    },
    Experiment {
        name: "transforms",
        tables: |cfg| vec![transform_table(&transform_ablation(cfg))],
    },
];

fn table3_table(cfg: &Config, rows: Vec<Table3Row>) -> Table {
    let rows = rows
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.task.to_string(),
                r.paper_n1.to_string(),
                r.paper_n2.to_string(),
                r.our_n1.to_string(),
                r.our_n2.to_string(),
                r.d.to_string(),
            ]
        })
        .collect();
    Table::new(
        format!("Table 3: dataset statistics (scale = {})", cfg.scale),
        &[
            "dataset", "task", "paper_n1", "paper_n2", "our_n1", "our_n2", "d",
        ],
        rows,
    )
}

fn fig5_table(rows: Vec<Fig5Row>) -> Table {
    let rows = rows
        .into_iter()
        .map(|r| {
            let mut row = vec![r.approach.to_string()];
            row.extend(r.prices.iter().map(|&p| fmt(p)));
            row.push(fmt(r.revenue));
            row.push(fmt(r.affordability));
            row.push(if r.has_arbitrage { "YES" } else { "no" }.to_string());
            row
        })
        .collect();
    Table::new(
        "Figure 5: pricing approaches on a = 1..4, v = (100, 150, 280, 350), b = 0.25",
        &[
            "approach",
            "p(1)",
            "p(2)",
            "p(3)",
            "p(4)",
            "revenue",
            "affordability",
            "arbitrage?",
        ],
        rows,
    )
}

fn fig6_table(cfg: &Config, points: Vec<Fig6Point>) -> Table {
    let rows = points
        .into_iter()
        .map(|p| {
            vec![
                p.dataset,
                p.error_kind.to_string(),
                fmt(p.inv_ncp),
                fmt(p.expected_error),
            ]
        })
        .collect();
    Table::new(
        format!(
            "Figure 6: expected test error vs 1/NCP (reps = {}, scale = {})",
            cfg.reps, cfg.scale
        ),
        &["dataset", "error", "1/NCP", "expected_error"],
        rows,
    )
}

/// A Figure 7/8 panel: every method's revenue, affordability, buyer
/// surplus, efficiency and price at each grid point; each baseline's
/// label carries MBP's revenue multiple over it.
fn revenue_table(s: &RevenueScenario) -> Table {
    let grid_labels: Vec<String> = s.grid.iter().map(|&x| format!("p({x:.0})")).collect();
    let mut header = vec![
        "method",
        "revenue",
        "affordability",
        "buyer_surplus",
        "efficiency",
    ];
    header.extend(grid_labels.iter().map(String::as_str));
    let mbp_rev = s.outcomes[0].revenue;
    let buyers: Vec<String> = s
        .buyers
        .iter()
        .map(|b| format!("(a={:.0},v={:.1},b={:.3})", b.a, b.valuation, b.demand))
        .collect();
    let rows = s
        .outcomes
        .iter()
        .map(|o| {
            let mut label = o.method.to_string();
            if o.method != "MBP" && o.revenue > 0.0 {
                label.push_str(&format!(" ({:.1}x)", mbp_rev / o.revenue));
            }
            let mut row = vec![
                label,
                fmt(o.revenue),
                fmt(o.affordability),
                fmt(o.buyer_surplus),
                fmt(o.efficiency),
            ];
            row.extend(o.prices.iter().map(|&p| fmt(p)));
            row
        })
        .collect();
    Table::new(
        format!("{} — buyers: {}", s.label, buyers.join(" ")),
        &header,
        rows,
    )
}

/// A Figure 9/10 panel: runtime, revenue and affordability per `(n, method)`.
fn runtime_table(s: &RuntimeScenario) -> Table {
    let rows = s
        .rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.method.to_string(),
                fmt_secs(r.runtime_s),
                fmt(r.revenue),
                fmt(r.affordability),
            ]
        })
        .collect();
    Table::new(
        s.label.clone(),
        &["n", "method", "runtime", "revenue", "affordability"],
        rows,
    )
}

fn fairness_table(rows: &[FairnessRow]) -> Table {
    Table::new(
        "Extension: revenue vs affordability as the fairness weight grows",
        &["lambda", "revenue", "affordability"],
        rows.iter()
            .map(|r| vec![fmt(r.lambda), fmt(r.revenue), fmt(r.affordability)])
            .collect(),
    )
}

fn simulation_table(rows: Vec<SimulationRow>) -> Table {
    let rows = rows
        .into_iter()
        .map(|r| {
            vec![
                r.label,
                fmt(r.predicted_revenue),
                fmt(r.realized_revenue),
                fmt(r.predicted_affordability),
                fmt(r.realized_affordability),
                r.served.to_string(),
            ]
        })
        .collect();
    Table::new(
        "Extension: simulated selling season (3000 buyers)",
        &[
            "pricing",
            "predicted_rev/buyer",
            "realized_rev/buyer",
            "predicted_afford",
            "realized_afford",
            "served",
        ],
        rows,
    )
}

fn adaptive_table((rows, oracle): (Vec<AdaptiveRow>, f64)) -> Table {
    let rows = rows
        .iter()
        .map(|r| {
            vec![
                r.epoch.to_string(),
                fmt(r.revenue_per_buyer),
                fmt(r.acceptance_rate),
                fmt(r.estimate_rmse),
            ]
        })
        .collect();
    Table::new(
        format!(
            "Extension: adaptive pricing from a 3x-wrong value estimate (oracle revenue/buyer = {})",
            fmt(oracle)
        ),
        &["epoch", "revenue/buyer", "acceptance", "estimate_rmse"],
        rows,
    )
}

fn transform_table(rows: &[TransformRow]) -> Table {
    let rows = rows
        .iter()
        .map(|r| {
            let rel = (r.delta_method - r.monte_carlo).abs() / r.monte_carlo;
            vec![
                fmt(r.relative_ncp),
                fmt(r.monte_carlo),
                fmt(r.delta_method),
                fmt(r.empirical),
                fmt(rel),
            ]
        })
        .collect();
    Table::new(
        "Extension: error-transform accuracy, delta method vs empirical vs Monte-Carlo truth",
        &[
            "ncp/|h*|^2",
            "monte_carlo",
            "delta_method",
            "empirical",
            "delta_rel_err",
        ],
        rows,
    )
}
