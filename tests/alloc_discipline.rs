//! Allocation discipline for the quote-serving fast path.
//!
//! The steady-state buy path — `Broker::buy_batch_into` on a batch of one
//! (the daemon's depth-1 shape) with a reused [`SaleArena`] and
//! observability disabled — must perform **zero heap allocations** per
//! purchase: the compiled pricing table answers price/NCP resolution by
//! lookup, the mechanism perturbs into the arena's buffer, and the sale
//! is counted into fixed-size per-kind totals. Nothing is reserved
//! up front: the totals do not grow with the number of sales, on the
//! plain broker or in the per-handle `SharedBroker` totals the daemon's
//! IO workers settle into.
//!
//! A counting `#[global_allocator]` (wrapping `System`, in
//! `support/counting_alloc.rs`) verifies this directly. CI runs it as its
//! own "Allocation discipline" step, with `--nocapture`.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocations;

const KIND: ModelKind = ModelKind::LinearRegression;

/// Observability must stay disabled: enabled metrics intern names and
/// would allocate. The registry is inert by default; this is just a guard
/// against future test-harness changes.
fn assert_obs_disabled() {
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );
}

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

#[test]
fn steady_state_buy_path_does_not_allocate() {
    assert_obs_disabled();
    let mut broker = listed_broker(0xA110C);

    const WARMUP: usize = 8;
    const MEASURED: usize = 256;

    // The warm-up buys size the arena's Sale slot.
    let mut rng = seeded_rng(0x5e11);
    let mut arena = SaleArena::new();
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
        "steady-state single buys performed {allocations} heap allocations over {MEASURED} buys"
    );

    // Sanity: the buys really happened and produced sane quotes.
    assert_eq!(broker.sales_count(), (WARMUP + MEASURED) as u64);
    let sale = arena.results().next().expect("one result").expect("sold");
    assert!(sale.price > 0.0 && sale.ncp > 0.0);
    assert!(broker.total_revenue() > 0.0);
}

/// The daemon's settle path: one-request `SharedBroker::buy_batch_into`
/// calls, which count their sales into the handle's own totals.
#[test]
fn steady_state_shared_buy_path_does_not_allocate() {
    assert_obs_disabled();
    let shared = SharedBroker::new(listed_broker(0x5AA7E));

    const WARMUP: usize = 8;
    const MEASURED: usize = 1024;

    let mut rng = seeded_rng(0x5e13);
    let mut arena = SaleArena::new();
    for i in 0..WARMUP {
        shared
            .buy_batch_into(KIND, &[request(i)], &mut rng, &mut arena)
            .expect("warm-up buy failed");
    }

    let allocations = count_allocations(|| {
        for i in WARMUP..WARMUP + MEASURED {
            shared
                .buy_batch_into(KIND, &[request(i)], &mut rng, &mut arena)
                .expect("steady-state buy failed");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state shared buys performed {allocations} heap allocations over {MEASURED} buys"
    );
    assert_eq!(shared.sales_count(), (WARMUP + MEASURED) as u64);
    assert!(shared.total_revenue() > 0.0);
}

#[test]
fn steady_state_batch_path_does_not_allocate() {
    assert_obs_disabled();
    let mut broker = listed_broker(0xBA7C4);

    // Batches mix all three request kinds and sweep many knot segments.
    const BATCH: usize = 32;
    let batch =
        |b: usize| -> Vec<PurchaseRequest> { (0..BATCH).map(|i| request(b * BATCH + i)).collect() };

    const WARMUP: usize = 4;
    const MEASURED: usize = 16;

    // The warm-up batches size the arena's Sale slots and scratch. Request
    // buffers are built outside the measured window — the discipline under
    // test is the broker's batch path, not the caller's argument marshalling.
    let batches: Vec<Vec<PurchaseRequest>> = (0..WARMUP + MEASURED).map(batch).collect();
    let mut rng = seeded_rng(0x5e12);
    let mut arena = SaleArena::new();
    for b in batches.iter().take(WARMUP) {
        broker
            .buy_batch_into(KIND, b, &mut rng, &mut arena)
            .expect("warm-up batch failed");
    }

    let allocations = count_allocations(|| {
        for b in batches.iter().skip(WARMUP) {
            broker
                .buy_batch_into(KIND, b, &mut rng, &mut arena)
                .expect("steady-state batch failed");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state buy_batch_into performed {allocations} heap allocations over {MEASURED} batches of {BATCH}"
    );

    // Sanity: the batches really ran and sold.
    assert_eq!(arena.len(), BATCH);
    assert!(arena.results().all(|r| r.is_ok()));
    assert_eq!(broker.sales_count(), ((WARMUP + MEASURED) * BATCH) as u64);
    assert!(broker.total_revenue() > 0.0);
}
