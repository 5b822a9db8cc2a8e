//! Trading revenue for affordability (the paper's Section 7 future-work
//! direction, implemented here as a λ-weighted variant of the Theorem 10
//! DP).
//!
//! A pure revenue maximizer may price the cheapest buyers out entirely. The
//! fairness-weighted solver adds a bonus of λ per *served* unit of demand,
//! sweeping out a Pareto frontier between seller revenue and buyer
//! affordability — every point of which is still arbitrage-free.
//!
//! Run with: `cargo run --example fairness_tradeoff --release`

use mbp::prelude::*;

fn main() {
    // A convex value curve: low-accuracy buyers value models near zero,
    // so revenue maximization tends to abandon them.
    let g = mbp::core::market::curves::grid(20.0, 100.0, 9);
    let buyers = buyer_points(
        &g,
        &ValueCurve::new(ValueShape::Convex { power: 2.5 }, 2.0, 100.0),
        &DemandCurve::new(DemandShape::Peak {
            center: 0.6,
            width: 0.35,
        }),
    )
    .expect("example grid is valid");

    println!("lambda  revenue  affordability  arbitrage-free");
    let mut frontier = Vec::new();
    for lambda in [0.0, 1.0, 5.0, 10.0, 20.0, 35.0, 50.0, 100.0] {
        let sol = solve_bv_dp_fair(&buyers, lambda);
        let r = revenue(&sol.pricing, &buyers);
        let a = affordability(&sol.pricing, &buyers);
        let clean = check(&sol.pricing).is_ok();
        println!("{lambda:>6.1} {r:>8.3} {a:>14.3}  {clean}");
        assert!(clean, "fair pricing must stay arbitrage-free");
        frontier.push((lambda, r, a));
    }

    // The frontier is a genuine trade-off: revenue never rises and
    // affordability never falls as lambda grows.
    for w in frontier.windows(2) {
        assert!(w[1].1 <= w[0].1 + 1e-9, "revenue increased along lambda");
        assert!(w[1].2 >= w[0].2 - 1e-9, "affordability fell along lambda");
    }
    let first = frontier.first().unwrap();
    let last = frontier.last().unwrap();
    println!(
        "\nsweeping lambda 0 -> {}: revenue {:.2} -> {:.2}, affordability {:.2} -> {:.2}",
        last.0, first.1, last.1, first.2, last.2
    );
    assert!(last.2 > first.2, "fairness weight should buy affordability");
}
