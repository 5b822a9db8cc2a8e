//! Bit pins for the compute kernels.
//!
//! Every kernel runs on the thread that calls it, with one summation order
//! and one RNG layout whatever the machine:
//!
//! * `matmul` walks each output row's `k` in ascending order;
//! * `gram` picks banded or row-by-row accumulation by shape alone and
//!   merges the band partials in band order;
//! * the loss sums reduce fixed 1024-example chunks in chunk order;
//! * the Gaussian release at `d ≥ 4096` draws fixed 2048-coordinate chunks,
//!   each from its own RNG seeded off one root draw;
//! * `welfare` reduces fixed 2048-point chunks in chunk order;
//! * a market season runs fixed 512-buyer shards with per-shard seeds and
//!   settles them in shard order.
//!
//! Each test pins an FNV-1a digest of the result's `f64::to_bits` for fixed
//! inputs, so a change to any of those orders or layouts fails here. The
//! kernels used to run on a compute pool; the pins are the bits they gave
//! there at every thread count of two or more, which is what the test
//! names refer to.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::simulation::{simulate_market, SimulationConfig};
use mbp_core::market::{Broker, SaleLog, Seller};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_core::revenue::{solve_bv_dp, welfare, BuyerPoint};
use mbp_linalg::{Matrix, Vector};
use mbp_ml::{LogisticLoss, ModelKind, Objective};
use mbp_randx::seeded_rng;

fn patterned_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 89) as f64 / 89.0 - 0.5)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Compares every `(name, got, want)` pin and reports all mismatches at once.
fn check_pins(pins: &[(&str, u64, u64)]) {
    let wrong: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "moved pins:\n{}", wrong.join("\n"));
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn matmul_is_bit_identical_at_every_thread_count() {
    let a = patterned_matrix(130, 90);
    let b = patterned_matrix(90, 70);
    let c = a.matmul(&b).expect("shapes agree");
    check_pins(&[(
        "matmul 130x90 * 90x70",
        digest(c.as_slice().to_vec()),
        0x92d9_f555_a8c1_0d5c,
    )]);
}

/// 700×160 has more than one 256-row band and d ≥ 139, so it takes the
/// banded reduction; 300×40 is too narrow for it and runs row by row.
#[test]
fn gram_is_bit_identical_at_every_thread_count() {
    let banded = patterned_matrix(700, 160);
    let row_by_row = patterned_matrix(300, 40);
    let g = banded.gram();
    check_pins(&[
        (
            "gram 700x160 (banded)",
            digest(g.as_slice().to_vec()),
            0x110d_6806_5adb_2d24,
        ),
        (
            "gram 300x40 (row by row)",
            digest(row_by_row.gram().as_slice().to_vec()),
            0xbf5c_94c1_1789_82ba,
        ),
    ]);
    // The banded sum differs from a row-by-row product only by
    // reassociation.
    let reference = banded.transpose().matmul(&banded).expect("shapes agree");
    for (r, b) in reference.as_slice().iter().zip(g.as_slice()) {
        assert!(rel_close(*r, *b, 1e-12), "row-by-row {r} vs banded {b}");
    }
}

/// 303 rows (n mod 4 = 3) with exact zeros of both signs planted: the
/// Gram's four-row groups meet columns that skip a zero, and three rows
/// are left over after the last group.
#[test]
fn gram_with_zeros_and_a_ragged_row_tail_is_pinned() {
    let mut data = patterned_matrix(303, 40).as_slice().to_vec();
    for (k, x) in data.iter_mut().enumerate() {
        match k % 7 {
            0 => *x = 0.0,
            3 => *x = -0.0,
            _ => {}
        }
    }
    let m = Matrix::from_vec(303, 40, data).expect("consistent shape");
    check_pins(&[(
        "gram 303x40 with zeros (row by row)",
        digest(m.gram().as_slice().to_vec()),
        0x9fe2_9433_4868_a55d,
    )]);
}

#[test]
fn training_gradients_agree_across_thread_counts() {
    let mut rng = seeded_rng(515);
    let ds = mbp_data::synth::simulated2(3000, 8, 0.9, &mut rng);
    let loss = LogisticLoss::ridge(1e-4);
    let w = Vector::from_vec(vec![0.1; 8]);
    check_pins(&[
        (
            "logistic value, n = 3000",
            digest([loss.value(&w, &ds)]),
            0x78d7_cf50_db8d_db62,
        ),
        (
            "logistic gradient, n = 3000",
            digest(loss.gradient(&w, &ds).as_slice().to_vec()),
            0x08a5_4630_78f1_31e4,
        ),
        (
            "logistic Hessian, n = 3000",
            digest(loss.hessian(&w, &ds).as_slice().to_vec()),
            0x06ec_11ff_7b28_12d8,
        ),
    ]);
}

#[test]
fn gaussian_release_is_thread_count_invariant() {
    let h = Vector::from_vec(vec![0.3; 8192]);
    let mut rng = seeded_rng(616);
    let release = GaussianMechanism.perturb(&h, 1.5, &mut rng);
    check_pins(&[(
        "Gaussian release, d = 8192",
        digest(release.as_slice().to_vec()),
        0x7879_ceef_8518_cea1,
    )]);
}

/// `welfare` prices each buyer through `PricingFunction::price_at`, the
/// arithmetic every sale is charged by (per-segment slope and one
/// multiply-add between knots). The pin moved from `0x9031_5ebf_1862_a392`
/// when the separate two-point interpolation it used to evaluate was
/// removed; the chunk order is unchanged.
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
    let n = 250_000;
    let population: Vec<BuyerPoint> = (0..n)
        .map(|i| {
            let t = (i % 997) as f64 / 996.0;
            BuyerPoint::new(10.0 + 90.0 * t, value.value_at_unit(t), 1.0 / n as f64)
        })
        .collect();
    let w = welfare(&pricing, &population);
    check_pins(&[(
        "welfare, 250k points",
        digest([w.revenue, w.buyer_surplus, w.affordability, w.efficiency]),
        0x1100_b651_05f0_dfd8,
    )]);
}

#[test]
fn sharded_market_season_is_identical_at_1_2_and_4_threads() {
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
            n_buyers: 1500,
            valuation_jitter: 0.1,
        },
        818,
    )
    .expect("simulation failed");
    assert_eq!(out.served + out.declined, 1500);
    let sales: Vec<f64> = log
        .lock()
        .iter()
        .flat_map(|tx| [tx.ncp, tx.price])
        .collect();
    assert_eq!(
        sales.len(),
        2 * out.served,
        "one recorded sale per served buyer"
    );
    let totals = broker.totals();
    check_pins(&[
        (
            "season counts",
            digest([out.served as f64, out.declined as f64]),
            0xb32c_82e9_24de_c4a5,
        ),
        (
            "season realized revenue and totals",
            digest([
                out.realized_revenue_per_buyer,
                totals.count() as f64,
                totals.revenue(),
            ]),
            0x063e_516a_795a_7434,
        ),
        ("season sale sequence", digest(sales), 0xce20_318f_5e58_b014),
    ]);
}
