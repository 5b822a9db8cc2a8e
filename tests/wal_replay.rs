//! Write-ahead log round trip at smoke scale: a broker that logs to an
//! `mbp_wal::Durability` sink while it sells — two simulated seasons, then
//! listed batch purchases — recovers from its log into a bit-identical
//! broker.

use mbp::prelude::*;
use mbp::randx::seeded_rng;
use mbp_wal::{broker_fingerprint, Durability, WalConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const KIND: ModelKind = ModelKind::LinearRegression;

/// A fresh log directory keyed by test name, process and a per-process
/// sequence number, so concurrent tests and reruns never share one.
fn scratch_dir(test: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mbp-wal-replay-{test}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seller() -> Seller {
    let mut rng = seeded_rng(0x3a1);
    let data = mbp::data::synth::simulated1(800, 4, 0.5, &mut rng).split(0.75, &mut rng);
    Seller::new(
        data,
        grid(10.0, 100.0, 10),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
        DemandCurve::new(DemandShape::Uniform),
    )
}

#[test]
fn recovered_broker_matches_the_live_one_after_simulated_seasons() {
    let dir = scratch_dir("seasons");
    let seller = seller();
    let (wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
    assert!(recovery.state.is_empty());

    let mut broker = Broker::new(seller.data.clone());
    broker.set_durability(wal.clone());
    broker.support(KIND, 1e-6).unwrap();
    let pricing = broker.price_from_research(&seller).pricing;
    // Recovery relists under the square-loss transform, so the live
    // listing uses it too.
    broker
        .publish(KIND, pricing, Box::new(SquareLossTransform))
        .unwrap();

    let cfg = SimulationConfig {
        n_buyers: 1500,
        valuation_jitter: 0.1,
    };
    let mut served = 0;
    for seed in [11, 12] {
        let out = simulate_market(&mut broker, &seller, KIND, cfg, seed).unwrap();
        assert!(out.served > 0, "season {seed}: no sales");
        served += out.served;
    }
    let mut rng = seeded_rng(13);
    let requests = [
        PurchaseRequest::AtNcp(0.02),
        PurchaseRequest::PriceBudget(40.0),
        PurchaseRequest::ErrorBudget(0.05),
        PurchaseRequest::AtNcp(-1.0), // rejected: never logged
    ];
    for _ in 0..3 {
        for sale in broker.buy_batch(KIND, &requests, &mut rng).unwrap() {
            served += usize::from(sale.is_ok());
        }
    }
    assert_eq!(broker.sales_count(), served as u64);
    wal.sync().unwrap();
    assert_eq!(wal.io_error_count(), 0);
    assert_eq!(wal.sales_logged(), served as u64);
    drop(broker.take_durability());
    drop(wal);

    let (_wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(recovery.records_skipped, 0);
    let mut recovered = Broker::new(seller.data.clone());
    recovery.state.apply(&mut recovered).unwrap();
    assert_eq!(recovered.sales_count(), served as u64);
    assert_eq!(
        broker_fingerprint(&recovered),
        broker_fingerprint(&broker),
        "recovered broker differs from the live one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
