//! The paper's Example 1 (Section 3.2), literally: the hypothesis space is
//! `R` and the "model" is the average of a column — the simplest possible
//! MBP instantiation. Alice buys noisy versions of the average annual
//! income of a region, at an accuracy matching her budget, instead of
//! buying the raw column.
//!
//! This also demonstrates the two alternative mechanisms from Example 1:
//! additive uniform noise `K₁` and multiplicative uniform noise `K₂`, both
//! unbiased and NCP-calibrated.
//!
//! Run with: `cargo run --example average_query --release`

use mbp::core::market::resolve_ncp;
use mbp::linalg::Vector;
use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(88);

    // The seller's column: incomes of a region (synthetic, log-normal-ish).
    let incomes: Vec<f64> = (0..50_000)
        .map(|i| {
            let base = 30_000.0 + 40_000.0 * ((i as f64 * 0.7133).sin().abs());
            base + 15_000.0 * ((i as f64 * 0.137).cos())
        })
        .collect();
    let n = incomes.len() as f64;
    let true_mean = incomes.iter().sum::<f64>() / n;
    println!("true average income: {true_mean:.2} (hidden from the buyer)");

    // The optimal "model instance" for λ(h, D) = (h − x̄)² is just x̄ — a
    // 1-dimensional hypothesis.
    let h_star = Vector::from_vec(vec![true_mean]);

    // An arbitrage-free pricing over precision: concave in 1/δ.
    // Precisions are in units of 1/(income²); scale the grid accordingly.
    let unit = true_mean * true_mean;
    let grid: Vec<f64> = (1..=10).map(|i| i as f64 / unit).collect();
    let prices: Vec<f64> = (1..=10).map(|i| 25.0 * (i as f64).sqrt()).collect();
    let pricing = PricingFunction::from_points(grid.clone(), prices).unwrap();
    let report = mbp::core::arbitrage::audit(&pricing, &grid, 10, 1e-9);
    assert!(report.is_clean());
    println!("pricing curve audited: arbitrage-free\n");

    // Alice buys at three price points and sees the accuracy she paid for.
    for budget in [25.0, 50.0, 79.0] {
        // A budget buys what a broker would sell it: the listing's most
        // precise affordable point.
        let request = PurchaseRequest::PriceBudget(budget);
        let ncp = resolve_ncp(&pricing, &SquareLossTransform, request).expect("affordable");
        let mech = GaussianMechanism;
        let noisy = mech.perturb(&h_star, ncp, &mut rng);
        let rel_sd = (ncp.sqrt()) / true_mean * 100.0;
        println!(
            "budget {budget:>5.0} -> noise sd {:.0} ({rel_sd:.1}% of the mean): average ~ {:.2}",
            ncp.sqrt(),
            noisy[0]
        );
    }

    // The two Example 1 mechanisms agree on accuracy semantics: at equal
    // NCP they produce equal expected squared error.
    println!("\nmechanism calibration check at ncp = (5% of mean)^2:");
    let ncp = (0.05 * true_mean).powi(2);
    for mech in [
        Box::new(UniformAdditiveMechanism) as Box<dyn NoiseMechanism>,
        Box::new(UniformMultiplicativeMechanism),
        Box::new(GaussianMechanism),
        Box::new(LaplaceMechanism),
    ] {
        let reps = 40_000;
        let mut err = 0.0;
        for _ in 0..reps {
            let out = mech.perturb(&h_star, ncp, &mut rng);
            let d = out[0] - true_mean;
            err += d * d;
        }
        err /= reps as f64;
        println!(
            "  {:<24} measured E[(ĥ − x̄)²]/ncp = {:.3}",
            mech.name(),
            err / ncp
        );
        assert!((err / ncp - 1.0).abs() < 0.05);
    }
    println!("\nall four mechanisms are unbiased and NCP-calibrated — the same\npricing curve prices them all.");
}
