//! Why arbitrage-freeness matters: attacking a broken pricing function.
//!
//! A naive broker prices precision *convexly* (`p̄(x) = x²`), reasoning that
//! accuracy should get expensive fast. A savvy buyer then buys several cheap
//! low-precision instances and averages them (inverse-variance weighting,
//! the estimator from the proof of Theorem 5), obtaining the accuracy of an
//! expensive instance for a fraction of its list price. The same attack
//! fails against the subadditive pricing produced by the revenue DP.
//!
//! Run with: `cargo run --example arbitrage_attack --release`

use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(1337);
    let h_star = mbp::linalg::Vector::from_vec(vec![1.2, -3.1, 0.5, 0.1, -2.3, 7.2, -0.9, 5.5]);
    let grid: Vec<f64> = (1..=10).map(|i| i as f64).collect();

    // --- The broken market: superadditive (convex) prices. ---
    let convex =
        PricingFunction::from_points(grid.clone(), grid.iter().map(|x| x * x).collect()).unwrap();
    let witness = check(&convex).expect_err("convex pricing is attackable");
    println!("check of convex pricing: {witness}");
    let Arbitrage::Superadditive { x, y, .. } = witness else {
        panic!("x² rises everywhere, so its defect is superadditivity");
    };

    // Execute it against real Gaussian releases.
    let mech = GaussianMechanism;
    let mut purchases = Vec::new();
    let mut ncps = Vec::new();
    let mut paid = 0.0;
    for part in [x, y] {
        let ncp = 1.0 / part;
        purchases.push(mech.perturb(&h_star, ncp, &mut rng));
        ncps.push(ncp);
        paid += convex.price_at(part);
    }
    let (_combined, combined_ncp) = combine_inverse_variance(&purchases, &ncps);
    println!(
        "attacker paid {:.0}, obtained combined ncp {:.4} (list price for that precision: {:.0})",
        paid,
        combined_ncp,
        convex.price_at(1.0 / combined_ncp)
    );
    // Verify empirically over many runs that the combined model really has
    // the promised accuracy.
    let reps = 5000;
    let mut err = 0.0;
    for _ in 0..reps {
        let models: Vec<_> = ncps
            .iter()
            .map(|&d| mech.perturb(&h_star, d, &mut rng))
            .collect();
        let (c, _) = combine_inverse_variance(&models, &ncps);
        err += c.sub(&h_star).unwrap().norm2_squared();
    }
    err /= reps as f64;
    println!("measured model-space error of the bundle: {err:.4} (promised {combined_ncp:.4})");
    assert!(paid < convex.price_at(1.0 / combined_ncp));

    // --- The fixed market: DP-optimized subadditive prices. ---
    let buyers: Vec<BuyerPoint> = grid
        .iter()
        .map(|&x| BuyerPoint::new(x, 10.0 * x.sqrt() * 10.0, 0.1))
        .collect();
    let dp = solve_bv_dp(&buyers);
    let verdict = check(&dp.pricing);
    println!("\ncheck of DP pricing: {verdict:?}");
    assert_eq!(verdict, Ok(()), "the DP must produce arbitrage-free prices");
    println!("no bundle of cheap instances undercuts any list price — the market is safe");
}
