//! Allocation discipline for the quote-serving fast path.
//!
//! The steady-state buy path — `Broker::buy_batch_into` on a batch of one
//! (the daemon's depth-1 shape) with a reused [`SaleArena`], a
//! pre-reserved ledger, and observability disabled — must perform **zero
//! heap allocations** per purchase: the compiled
//! pricing table answers price/NCP resolution by lookup, the mechanism
//! perturbs into the arena's buffer, and the ledger entry is plain data
//! pushed into reserved capacity.
//!
//! A counting `#[global_allocator]` (wrapping `System`, in
//! `support/counting_alloc.rs`) verifies this directly. CI runs this test
//! in the `MBP_THREADS=1` job.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocations;

#[test]
fn steady_state_buy_path_does_not_allocate() {
    // Observability must stay disabled: enabled metrics intern names and
    // would allocate. The registry is inert by default; this is just a
    // guard against future test-harness changes.
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );

    let mut rng = seeded_rng(0xA110C);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");

    // All three request kinds, all satisfiable, cycled deterministically.
    let request = |i: usize| match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    };

    const WARMUP: usize = 8;
    const MEASURED: usize = 256;

    // Pre-size everything the steady state reuses: the ledger and the
    // arena's Sale slot (filled by the warm-up buys).
    broker.reserve_ledger(WARMUP + MEASURED);
    let mut rng = seeded_rng(0x5e11);
    let mut arena = SaleArena::new();
    for i in 0..WARMUP {
        broker
            .buy_batch_into(
                ModelKind::LinearRegression,
                &[request(i)],
                &mut rng,
                &mut arena,
            )
            .expect("warm-up buy failed");
    }

    let allocations = count_allocations(|| {
        for i in WARMUP..WARMUP + MEASURED {
            broker
                .buy_batch_into(
                    ModelKind::LinearRegression,
                    &[request(i)],
                    &mut rng,
                    &mut arena,
                )
                .expect("steady-state buy failed");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state single buys performed {allocations} heap allocations over {MEASURED} buys"
    );

    // Sanity: the buys really happened and produced sane quotes.
    assert_eq!(broker.ledger().len(), WARMUP + MEASURED);
    let sale = arena.results().next().expect("one result").expect("sold");
    assert!(sale.price > 0.0 && sale.ncp > 0.0);
    assert!(broker.total_revenue() > 0.0);
}

#[test]
fn steady_state_batch_path_does_not_allocate() {
    assert!(
        !mbp_obs::is_enabled(),
        "obs registry must be disabled for the allocation test"
    );

    let mut rng = seeded_rng(0xBA7C4);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.5).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");

    // Batches mix all three request kinds and sweep many knot segments.
    const BATCH: usize = 32;
    let request = |i: usize| match i % 3 {
        0 => PurchaseRequest::AtNcp(0.1 + (i % 29) as f64 * 0.05),
        1 => PurchaseRequest::ErrorBudget(0.5 + (i % 17) as f64 * 0.1),
        _ => PurchaseRequest::PriceBudget(5.0 + (i % 40) as f64),
    };
    let batch =
        |b: usize| -> Vec<PurchaseRequest> { (0..BATCH).map(|i| request(b * BATCH + i)).collect() };

    const WARMUP: usize = 4;
    const MEASURED: usize = 16;

    // Pre-size the reused state: ledger capacity for every settlement, and
    // the arena's Sale slots / scratch via the warm-up batches. Request
    // buffers are built outside the measured window — the discipline under
    // test is the broker's batch path, not the caller's argument marshalling.
    broker.reserve_ledger((WARMUP + MEASURED) * BATCH);
    let batches: Vec<Vec<PurchaseRequest>> = (0..WARMUP + MEASURED).map(batch).collect();
    let mut rng = seeded_rng(0x5e12);
    let mut arena = SaleArena::new();
    for b in batches.iter().take(WARMUP) {
        broker
            .buy_batch_into(ModelKind::LinearRegression, b, &mut rng, &mut arena)
            .expect("warm-up batch failed");
    }

    let allocations = count_allocations(|| {
        for b in batches.iter().skip(WARMUP) {
            broker
                .buy_batch_into(ModelKind::LinearRegression, b, &mut rng, &mut arena)
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
    assert_eq!(broker.ledger().len(), (WARMUP + MEASURED) * BATCH);
    assert!(broker.total_revenue() > 0.0);
}
