//! The full Figure 1 flow over *relational* data: the seller holds two
//! tables (demographics and incomes), the buyer specifies a schema —
//! which features, which target — the broker joins/projects, trains the
//! optimal model on the buyer's schema, and sells noisy instances.
//!
//! Per the paper's Section 3.4, each listing fixes one feature set;
//! cross-feature-set arbitrage is out of scope, so the market prices only
//! noise levels within the fixed schema.
//!
//! Run with: `cargo run --example relational_pipeline --release`

use mbp::data::relation::Relation;
use mbp::data::Standardizer;
use mbp::prelude::*;
use mbp::randx::seeded_rng;

fn main() {
    let mut rng = seeded_rng(404);

    // --- The seller's relations (synthetic census-style tables). ---
    let n = 4000usize;
    use mbp::randx::{Distribution, StandardNormal, UniformRange};
    let age_dist = UniformRange::new(18.0, 80.0);
    let mut ids = Vec::with_capacity(n);
    let mut ages = Vec::with_capacity(n);
    let mut heights = Vec::with_capacity(n);
    let mut sexes = Vec::with_capacity(n);
    for i in 0..n {
        ids.push(i as f64);
        ages.push(age_dist.sample(&mut rng));
        heights.push(1.7 + 0.1 * StandardNormal.sample(&mut rng));
        sexes.push(if i % 2 == 0 { 1.0 } else { 0.0 });
    }
    let demographics = Relation::new(vec![
        ("id", ids.clone()),
        ("age", ages.clone()),
        ("sex", sexes.clone()),
        ("height", heights.clone()),
    ])
    .unwrap();
    // Income table: income depends on age (hump-shaped) + sex gap + noise;
    // some ids are missing (not everyone reports income).
    let mut inc_ids = Vec::new();
    let mut incomes = Vec::new();
    for i in 0..n {
        if i % 10 == 3 {
            continue; // missing income rows
        }
        let age = ages[i];
        let peak = 50.0;
        let base = 60_000.0 - 30.0 * (age - peak) * (age - peak);
        let gap = if sexes[i] > 0.5 { 4_000.0 } else { 0.0 };
        incomes.push(base + gap + 8_000.0 * StandardNormal.sample(&mut rng));
        inc_ids.push(i as f64);
    }
    let income_table = Relation::new(vec![("person", inc_ids), ("income", incomes)]).unwrap();
    println!(
        "seller relations: demographics ({} rows), incomes ({} rows)",
        demographics.n_rows(),
        income_table.n_rows()
    );

    // --- The buyer's schema: predict income from (age, sex, height). ---
    let joined = demographics
        .join(&income_table, "id", "person")
        .expect("join");
    println!(
        "joined listing: {} rows, schema {:?}",
        joined.n_rows(),
        joined.schema()
    );
    let ds = joined
        .to_dataset(&["age", "sex", "height"], "income")
        .expect("schema");
    let tt = ds.split(0.75, &mut rng);
    let tt = Standardizer::fit_apply(&tt);

    // --- Market as usual. ---
    let seller = Seller::new(
        tt,
        mbp::core::market::curves::grid(10.0, 100.0, 10),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 20.0, 500.0),
        DemandCurve::new(DemandShape::Uniform),
    );
    let mut broker = Broker::new(seller.data.clone());
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("train");
    let pricing = broker.price_from_research(&seller).pricing;
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();

    let sale = broker
        .buy_listed(
            ModelKind::LinearRegression,
            PurchaseRequest::PriceBudget(150.0),
            &mut rng,
        )
        .expect("purchase");
    println!(
        "bought instance for {:.2} (ncp {:.4}); coefficients (age, sex, height): {:?}",
        sale.price,
        sale.ncp,
        sale.model
            .weights()
            .as_slice()
            .iter()
            .map(|w| (w * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    // Age is the dominant (standardized) predictor by construction.
    let w = sale.model.weights().as_slice();
    assert!(
        w[0].abs() > w[2].abs(),
        "age should out-predict height: {w:?}"
    );
    println!(
        "broker totals: {} sale(s), revenue {:.2}",
        broker.sales_count(),
        broker.total_revenue()
    );
}
