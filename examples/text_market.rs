//! Selling a high-dimensional sparse text classifier (the paper's
//! Example 3 at realistic dimensionality).
//!
//! Messages are hashed bag-of-words vectors in R^2000 with ~12 active
//! buckets each. The optimal model is trained with sparse mini-batch SGD
//! (one epoch touches only the non-zeros), then priced and released
//! through the ordinary dense machinery — the hypothesis itself is dense,
//! so the Gaussian mechanism, the error transform, and the arbitrage
//! analysis apply unchanged.
//!
//! Run with: `cargo run --example text_market --release`

use mbp::core::market::resolve_ncp;
use mbp::ml::sparse::{sgd_logistic_sparse, zero_one_error_sparse, SparseSgdConfig};
use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(2023);

    // The seller's corpus: 20k messages, 2000 hashed buckets, ~12 nnz each.
    let corpus = mbp::data::sparse::sparse_text_standin(20_000, 2000, 12, 0.03, &mut rng);
    let (train, test) = corpus.split(0.75, &mut rng);
    println!(
        "corpus: {} train / {} test messages, d = {}, avg nnz = {:.1}",
        train.n(),
        test.n(),
        train.d(),
        train.avg_nnz()
    );

    // One-time training cost: sparse SGD.
    let t0 = std::time::Instant::now();
    let fit = sgd_logistic_sparse(
        &train,
        SparseSgdConfig {
            epochs: 25,
            batch_size: 128,
            step: 0.8,
            decay: 0.9,
            ridge: 1e-4,
            seed: 5,
        },
    );
    let train_time = t0.elapsed();
    let h_star = fit.weights;
    let floor = zero_one_error_sparse(&h_star, &test);
    println!(
        "trained in {train_time:?} ({} sgd steps); noiseless test error {floor:.4}",
        fit.iterations
    );

    // Pricing over precision, concave hence arbitrage-free.
    let kappa = h_star.norm2_squared();
    let grid: Vec<f64> = (1..=10).map(|i| i as f64 / kappa).collect();
    let prices: Vec<f64> = (1..=10).map(|i| 40.0 * (i as f64).sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).unwrap();
    assert_eq!(check(&pricing), Ok(()));

    // Release noisy classifiers at three price points; per-sale cost is a
    // d-dimensional Gaussian draw — microseconds, versus the training run.
    let mech = GaussianMechanism;
    println!("\nbudget -> released classifier quality:");
    for budget in [40.0, 90.0, 127.0] {
        // A budget buys what a broker would sell it: the listing's most
        // precise affordable point.
        let request = PurchaseRequest::PriceBudget(budget);
        let ncp = resolve_ncp(&pricing, &SquareLossTransform, request).expect("affordable");
        let t1 = std::time::Instant::now();
        let noisy = mech.perturb(&h_star, ncp, &mut rng);
        let sale_time = t1.elapsed();
        let err = zero_one_error_sparse(&noisy, &test);
        println!(
            "  {budget:>6.0} -> ncp {ncp:>8.3}, test error {err:.4} (release took {sale_time:?})"
        );
    }
    println!("\n(noiseless floor {floor:.4}; cheaper instances are strictly noisier)");
}
