//! Epoch rollover against a *real* broker.
//!
//! `run_adaptive_market` simulates seasons in isolation; these tests drive
//! the same per-season loop — re-derive a DP-optimal curve, re-publish it,
//! serve buyers — through [`Broker`] and [`SharedBroker`], pinning the
//! carry-over semantics: re-publishing a listing replaces the *offer* but
//! never rewrites or drops settled sales, in the totals or in the
//! recorded history.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, ExactSum, PurchaseRequest, SaleLog};
use mbp_core::revenue::{solve_bv_dp, BuyerPoint};
use mbp_data::synth;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::sync::Arc;

const KIND: ModelKind = ModelKind::LinearRegression;

/// The recorded prices' bits, in recording order.
fn recorded_prices(log: &SaleLog) -> Vec<u64> {
    log.lock().iter().map(|t| t.price.to_bits()).collect()
}

/// Buyer grid shared by every test: NCPs 1..=6 with concave valuations.
fn truth() -> Vec<BuyerPoint> {
    (1..=6)
        .map(|i| {
            let a = i as f64;
            BuyerPoint::new(a, 12.0 * a.sqrt(), 1.0 / 6.0)
        })
        .collect()
}

/// DP-optimal curve for the truth scaled by `scale` — one curve per
/// "season belief", all on the same grid but with distinct prices.
fn season_curve(scale: f64) -> mbp_core::pricing::PricingFunction {
    let believed: Vec<BuyerPoint> = truth()
        .iter()
        .map(|p| BuyerPoint::new(p.a, p.valuation * scale, p.demand))
        .collect();
    solve_bv_dp(&believed).pricing
}

fn fresh_broker(data_seed: u64) -> Broker {
    let mut rng = seeded_rng(data_seed);
    let data = synth::simulated1(60, 3, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(KIND, 1e-6)
        .expect("linear regression is supported");
    broker
}

#[test]
fn sales_carry_over_across_epoch_republishes() {
    let mut broker = fresh_broker(41);
    let log = Arc::new(SaleLog::default());
    broker.set_durability(log.clone());
    let mut rng = seeded_rng(42);
    let grid: Vec<f64> = truth().iter().map(|p| p.a).collect();
    let scales = [0.5, 0.75, 1.0, 1.25];

    let mut expected_revenue = ExactSum::default();
    let mut all_sale_prices: Vec<u64> = Vec::new();
    for (epoch, &scale) in scales.iter().enumerate() {
        let curve = season_curve(scale);
        broker
            .publish(KIND, curve, Box::new(SquareLossTransform))
            .expect("republish succeeds every epoch");
        for &a in &grid {
            let sale = broker
                .buy_listed(KIND, PurchaseRequest::AtNcp(a), &mut rng)
                .expect("AtNcp purchases always clear");
            expected_revenue.add(sale.price);
            all_sale_prices.push(sale.price.to_bits());
        }
        // Rollover: the totals accumulate across re-publishes instead of
        // resetting with the listing.
        assert_eq!(
            broker.sales_count(),
            ((epoch + 1) * grid.len()) as u64,
            "publish must not clear settled sales"
        );
    }

    // Every recorded sale still carries the price it settled at, in order:
    // re-publishing later (higher-scale) curves never rewrote history.
    assert_eq!(recorded_prices(&log), all_sale_prices);
    assert_eq!(
        broker.total_revenue(),
        expected_revenue.rounded(),
        "revenue is the exact sum over all epochs"
    );

    // The seasons genuinely re-priced: the same request costs more under
    // the last curve than under the first.
    let n = grid.len();
    let first_epoch_top = f64::from_bits(all_sale_prices[n - 1]);
    let last_epoch_top = f64::from_bits(all_sale_prices[all_sale_prices.len() - 1]);
    assert!(
        last_epoch_top > first_epoch_top,
        "scaled-up beliefs should raise the posted price ({first_epoch_top} vs {last_epoch_top})"
    );
}

#[test]
fn mid_epoch_republish_switches_quotes_without_rewriting_history() {
    let mut broker = fresh_broker(43);
    let log = Arc::new(SaleLog::default());
    broker.set_durability(log.clone());
    let mut rng = seeded_rng(44);
    let a = 4.0;

    broker
        .publish(KIND, season_curve(0.5), Box::new(SquareLossTransform))
        .expect("publish A");
    let under_a: Vec<u64> = (0..3)
        .map(|_| {
            broker
                .buy_listed(KIND, PurchaseRequest::AtNcp(a), &mut rng)
                .expect("buy under curve A")
                .price
                .to_bits()
        })
        .collect();

    // Mid-season correction: the seller re-publishes a steeper curve while
    // the season is still running.
    broker
        .publish(KIND, season_curve(1.0), Box::new(SquareLossTransform))
        .expect("publish B");
    let under_b: Vec<u64> = (0..3)
        .map(|_| {
            broker
                .buy_listed(KIND, PurchaseRequest::AtNcp(a), &mut rng)
                .expect("buy under curve B")
                .price
                .to_bits()
        })
        .collect();

    // Identical requests within one listing price identically (bitwise);
    // the switch is visible exactly at the re-publish.
    assert!(under_a.windows(2).all(|w| w[0] == w[1]));
    assert!(under_b.windows(2).all(|w| w[0] == w[1]));
    assert_ne!(under_a[0], under_b[0], "the re-publish must re-price");
    assert!(f64::from_bits(under_b[0]) > f64::from_bits(under_a[0]));

    // History is append-only: the three A-priced sales survive the
    // re-publish verbatim, followed by the three B-priced ones.
    let recorded = recorded_prices(&log);
    assert_eq!(recorded[..3], under_a[..]);
    assert_eq!(recorded[3..], under_b[..]);
}

#[test]
fn shared_broker_epoch_rollover_preserves_per_handle_sales() {
    let sb = SharedBroker::new(fresh_broker(45));
    let mut rng = seeded_rng(46);
    let requests: Vec<PurchaseRequest> = truth()
        .iter()
        .map(|p| PurchaseRequest::AtNcp(p.a))
        .collect();
    let scales = [0.5, 0.75, 1.0];

    let mut expected_revenue = ExactSum::default();
    for (epoch, &scale) in scales.iter().enumerate() {
        // Maintenance drains the owners, then swaps the listing — the
        // drained sales from prior seasons must already be in the core
        // totals when the new season opens.
        let carried = sb.with_broker(|b| {
            b.publish(KIND, season_curve(scale), Box::new(SquareLossTransform))
                .expect("republish succeeds every epoch");
            b.sales_count()
        });
        assert_eq!(
            carried,
            (epoch * requests.len()) as u64,
            "reconciliation carries every prior season's sales into the core totals"
        );
        let sales = sb
            .buy_batch(KIND, &requests, &mut rng)
            .expect("listing exists");
        for sale in sales {
            expected_revenue.add(sale.expect("AtNcp purchases always clear").price);
        }
        // sales_count spans core + owners, so the rollover is seamless
        // even before the next reconcile.
        assert_eq!(sb.sales_count(), ((epoch + 1) * requests.len()) as u64);
    }

    assert_eq!(sb.total_revenue(), expected_revenue.rounded());
    // Final reconcile: everything lands in the core totals, nothing lost.
    let (count, revenue) = sb.with_broker(|b| (b.sales_count(), b.total_revenue()));
    assert_eq!(count, (scales.len() * requests.len()) as u64);
    assert_eq!(revenue, expected_revenue.rounded());
}
