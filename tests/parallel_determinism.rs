//! End-to-end determinism of the parallel hot paths.
//!
//! Every parallel region in the workspace chunks its work by a fixed grain
//! that depends only on the problem size — never on the thread count — and
//! merges partial results in chunk order. Consequently:
//!
//! * order-preserving kernels (`matmul`, the chunk-seeded Gaussian noise,
//!   the sharded market simulation) are bit-identical at EVERY thread
//!   count, including 1;
//! * `gram` picks its banded reduction by shape alone, so it is
//!   bit-identical at every thread count too, and within 1e-12 relative
//!   of a row-by-row product;
//! * the other reassociating reductions (loss gradients, `welfare`) are
//!   bit-identical across all multi-threaded counts, and match the
//!   sequential path within a documented 1e-12 relative tolerance (the
//!   only difference is floating-point summation order).
//!
//! `mbp_par::with_threads` pins the pool size per closure, so one process
//! covers the `MBP_THREADS=1,2,4` matrix that CI also exercises
//! process-wide.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::simulation::{simulate_market, SimulationConfig};
use mbp_core::market::{Broker, SaleLog, Seller};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_core::revenue::{solve_bv_dp, welfare, BuyerPoint};
use mbp_linalg::{Matrix, Vector};
use mbp_ml::{LogisticLoss, ModelKind, Objective};
use mbp_par::with_threads;
use mbp_randx::seeded_rng;

const THREADS: [usize; 3] = [1, 2, 4];

fn patterned_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 89) as f64 / 89.0 - 0.5)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn matmul_is_bit_identical_at_every_thread_count() {
    let a = patterned_matrix(130, 90);
    let b = patterned_matrix(90, 70);
    let runs: Vec<Vec<f64>> = THREADS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                a.matmul(&b).expect("shapes agree").as_slice().to_vec()
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[1], runs[2], "2 vs 4 threads");
}

/// A shape above the Gram kernel's parallel grain (d ≥ 139 with more
/// than one 256-row band), so the banded reduction runs at every count.
#[test]
fn gram_is_bit_identical_at_every_thread_count() {
    let m = patterned_matrix(2000, 160);
    let runs: Vec<Vec<f64>> = THREADS
        .iter()
        .map(|&t| with_threads(t, || m.gram().as_slice().to_vec()))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[1], runs[2], "2 vs 4 threads");
    // The banded sum differs from a row-by-row product only by
    // reassociation.
    let reference = m.transpose().matmul(&m).expect("shapes agree");
    for (r, g) in reference.as_slice().iter().zip(&runs[0]) {
        assert!(rel_close(*r, *g, 1e-12), "row-by-row {r} vs banded {g}");
    }
}

#[test]
fn training_gradients_agree_across_thread_counts() {
    let mut rng = seeded_rng(515);
    let ds = mbp_data::synth::simulated2(4000, 8, 0.9, &mut rng);
    let loss = LogisticLoss::ridge(1e-4);
    let w = Vector::from_vec(vec![0.1; 8]);
    let runs: Vec<(Vec<f64>, f64)> = THREADS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                (
                    loss.gradient(&w, &ds).as_slice().to_vec(),
                    loss.value(&w, &ds),
                )
            })
        })
        .collect();
    assert_eq!(runs[1].0, runs[2].0, "gradient 2 vs 4 threads");
    assert_eq!(runs[1].1.to_bits(), runs[2].1.to_bits(), "value 2 vs 4");
    for (s, p) in runs[0].0.iter().zip(&runs[1].0) {
        assert!(rel_close(*s, *p, 1e-12), "serial {s} vs parallel {p}");
    }
    assert!(rel_close(runs[0].1, runs[1].1, 1e-12));
}

#[test]
fn gaussian_release_is_thread_count_invariant() {
    let h = Vector::from_vec(vec![0.3; 8192]);
    let runs: Vec<Vec<f64>> = THREADS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut rng = seeded_rng(616);
                GaussianMechanism
                    .perturb(&h, 1.5, &mut rng)
                    .as_slice()
                    .to_vec()
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[1], runs[2], "2 vs 4 threads");
}

#[test]
fn welfare_evaluation_agrees_across_thread_counts() {
    let g = grid(10.0, 100.0, 10);
    let value = ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0);
    let demand = DemandCurve::new(DemandShape::Peak {
        center: 0.5,
        width: 0.3,
    });
    let seed_buyers = mbp_core::market::curves::buyer_points(&g, &value, &demand).unwrap();
    let pricing = solve_bv_dp(&seed_buyers).pricing;
    let population: Vec<BuyerPoint> = (0..30_000)
        .map(|i| {
            let t = (i % 997) as f64 / 996.0;
            BuyerPoint::new(10.0 + 90.0 * t, value.value_at_unit(t), 1.0 / 30_000.0)
        })
        .collect();
    let runs: Vec<[f64; 3]> = THREADS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let w = welfare(&pricing, &population);
                [w.revenue, w.buyer_surplus, w.affordability]
            })
        })
        .collect();
    assert_eq!(runs[1], runs[2], "2 vs 4 threads");
    for (s, p) in runs[0].iter().zip(&runs[1]) {
        assert!(rel_close(*s, *p, 1e-12), "serial {s} vs parallel {p}");
    }
}

#[test]
fn sharded_market_season_is_identical_at_1_2_and_4_threads() {
    let run_season = |threads: usize| {
        with_threads(threads, || {
            let mut rng = seeded_rng(717);
            let data = mbp_data::synth::simulated1(900, 4, 0.5, &mut rng).split(0.75, &mut rng);
            let g = grid(10.0, 100.0, 10);
            let value = ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0);
            let demand = DemandCurve::new(DemandShape::Peak {
                center: 0.5,
                width: 0.3,
            });
            let seller = Seller::new(data.clone(), g, value, demand);
            let pricing = solve_bv_dp(&seller.buyer_population()).pricing;
            let mut broker = Broker::new(data);
            let log = std::sync::Arc::new(SaleLog::default());
            broker.set_durability(log.clone());
            broker
                .support(ModelKind::LinearRegression, 1e-6)
                .expect("training failed");
            broker
                .publish(
                    ModelKind::LinearRegression,
                    pricing,
                    Box::new(SquareLossTransform),
                )
                .expect("listed");
            let out = simulate_market(
                &mut broker,
                &seller,
                ModelKind::LinearRegression,
                SimulationConfig {
                    n_buyers: 2000,
                    valuation_jitter: 0.1,
                },
                818,
            )
            .expect("simulation failed");
            let sales: Vec<(u64, u64)> = log
                .lock()
                .iter()
                .map(|tx| (tx.ncp.to_bits(), tx.price.to_bits()))
                .collect();
            (
                out.served,
                out.declined,
                out.realized_revenue_per_buyer.to_bits(),
                broker.totals().clone(),
                sales,
            )
        })
    };
    let one = run_season(1);
    let two = run_season(2);
    let four = run_season(4);
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(two, four, "2 vs 4 threads");
}
