//! Allocation discipline with observability **enabled**.
//!
//! The serve daemon always runs with `mbp-obs` recording at the default
//! Info verbosity, so the purchase kernel's spans (`mbp.core.buy_batch`
//! and its `.resolve`/`.price` children, `mbp.core.price_batch`) are live
//! on every request. A warmed span must cost a clock read and a histogram
//! add: no heap allocation, no registry lock. These tests pin that with
//! the same counting `#[global_allocator]` as `alloc_discipline.rs`
//! (`support/counting_alloc.rs`).
//!
//! This is a test binary of its own because the obs enabled flag is
//! process-global: it must not leak into `alloc_discipline`'s
//! obs-disabled tests. The tests here toggle it, so they serialize on
//! [`serial`].

use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::sync::{Mutex, MutexGuard};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocations;

/// The tests toggle the process-global obs flag; one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const KIND: ModelKind = ModelKind::LinearRegression;
const WARMUP: usize = 8;
const MEASURED: usize = 256;

fn listed_broker(seed: u64) -> Broker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(KIND, pricing, Box::new(SquareLossTransform))
        .expect("listing accepted");
    broker
}

/// All three request kinds, all satisfiable, cycled deterministically.
fn request(i: usize) -> PurchaseRequest {
    match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    }
}

/// Enables recording at Info, the daemon's setting.
fn enable_at_info() {
    mbp_obs::enable();
    mbp_obs::set_verbosity(mbp_obs::Verbosity::Info);
}

#[test]
fn enabled_obs_buy_path_does_not_allocate() {
    let _serial = serial();
    enable_at_info();
    let mut broker = listed_broker(0xA110D);
    broker.reserve_ledger(WARMUP + MEASURED);
    let mut rng = seeded_rng(0x5e13);
    let mut arena = SaleArena::new();
    // Warm-up resolves every span, counter and gauge name once.
    for i in 0..WARMUP {
        broker
            .buy_batch_into(KIND, &[request(i)], &mut rng, &mut arena)
            .expect("warm-up buy failed");
    }
    let allocations = count_allocations(|| {
        for i in WARMUP..WARMUP + MEASURED {
            broker
                .buy_batch_into(KIND, &[request(i)], &mut rng, &mut arena)
                .expect("steady-state buy failed");
        }
    });
    assert_eq!(
        allocations, 0,
        "with obs enabled, steady-state single buys performed {allocations} heap allocations over {MEASURED} buys"
    );
    // Sanity: the buys ran and their spans recorded.
    assert_eq!(broker.ledger().len(), WARMUP + MEASURED);
    let snap = mbp_obs::snapshot();
    for name in [
        "mbp.core.buy_batch.seconds",
        "mbp.core.buy_batch.resolve.seconds",
        "mbp.core.buy_batch.price.seconds",
    ] {
        let count = snap.histogram(name).map_or(0, |h| h.count);
        assert!(count >= MEASURED as u64, "{name} recorded {count} spans");
    }
}

/// A warmed `price_batch_into` reuses the caller's arena and result
/// vector, so a quote performs no heap allocation, with obs disabled and
/// with it enabled at Info.
#[test]
fn enabled_obs_adds_no_allocation_to_price_batch() {
    let _serial = serial();
    let broker = listed_broker(0xA110E);
    let mut arena = SaleArena::new();
    let mut quotes = Vec::new();
    let mut quote_all = |range: std::ops::Range<usize>| {
        for i in range {
            broker
                .price_batch_into(KIND, &[request(i)], &mut arena, &mut quotes)
                .expect("listing exists");
            assert!(quotes.iter().all(|q| q.is_ok()), "quote {i} failed");
        }
    };

    mbp_obs::disable();
    quote_all(0..WARMUP);
    let disabled = count_allocations(|| quote_all(WARMUP..WARMUP + MEASURED));

    enable_at_info();
    quote_all(0..WARMUP);
    let enabled = count_allocations(|| quote_all(WARMUP..WARMUP + MEASURED));

    assert_eq!(
        (disabled, enabled),
        (0, 0),
        "{MEASURED} warmed quotes performed (obs disabled, obs enabled) heap allocations"
    );
    let spans = mbp_obs::snapshot()
        .histogram("mbp.core.price_batch.seconds")
        .map_or(0, |h| h.count);
    assert!(
        spans >= MEASURED as u64,
        "price_batch recorded {spans} spans"
    );
}
