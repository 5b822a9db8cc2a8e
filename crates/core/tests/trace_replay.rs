//! End-to-end causal-tracing acceptance tests: a planted slow quote lands
//! in the flight recorder as an exemplar carrying its replay seed, and
//! re-running the request from that seed reproduces both the released
//! model and the canonical span tree; a buy that waits on a contended
//! lock records the wait inside its own trace; a simulated season emits
//! identical span trees at every thread count, and every span recorded
//! in it nests inside its parent.
//!
//! Obs state is process-global, so every test here serializes on one lock
//! (this integration binary is its own process — the core unit tests can
//! never interleave with it).

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::simulation::{simulate_market, SimulationConfig};
use mbp_core::market::{Broker, PurchaseRequest, Sale, SaleArena, Seller};
use mbp_core::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn arm() {
    mbp_obs::reset();
    mbp_obs::enable();
    mbp_obs::set_tracing(true);
}

fn disarm() {
    mbp_obs::set_tracing(false);
    mbp_obs::disable();
    mbp_obs::set_slow_threshold_micros(u64::MAX / 1000);
    mbp_obs::reset();
}

fn pricing() -> PricingFunction {
    let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let p: Vec<f64> = g.iter().map(|x| 8.0 * x.sqrt()).collect();
    PricingFunction::from_points(g, p).unwrap()
}

fn listed_broker(seed: u64) -> Broker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 4, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
    broker
}

/// Acceptance: with the slow threshold at zero, a listed quote is planted
/// as "slow"; its exemplar carries the request seed and the full child
/// tree, and replaying from that seed reproduces the identical released
/// weights and canonical span tree.
#[test]
fn slow_quote_exemplar_carries_seed_and_replays_identically() {
    let _g = serial();
    arm();
    mbp_obs::set_slow_threshold_micros(0);
    let mut broker = listed_broker(51);
    let run = |broker: &mut Broker, seed: u64| -> Sale {
        let mut rng = seeded_rng(seed);
        mbp_obs::set_request_seed(seed);
        broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::ErrorBudget(1.5),
                &mut rng,
            )
            .unwrap()
    };
    let first = run(&mut broker, 777_001);

    let exemplars = mbp_obs::exemplars();
    let ex = exemplars
        .iter()
        .find(|e| e.root.seed == 777_001)
        .expect("planted slow quote must be captured as an exemplar");
    assert_eq!(ex.root.name, "mbp.core.buy");
    assert_eq!(ex.root.listing, "linear_regression");
    assert_eq!(ex.root.mechanism, "gaussian");
    assert!(
        !ex.children.is_empty(),
        "exemplar must retain the child span tree"
    );
    let mut captured = ex.children.clone();
    captured.push(ex.root.clone());
    let captured_tree = mbp_obs::canonical_tree(&captured, ex.root.trace);
    for span in [
        "mbp.core.buy_batch",
        "mbp.core.buy_batch.resolve",
        "mbp.core.buy_batch.price",
    ] {
        assert!(
            captured_tree.contains(&format!("{span}(")),
            "span {span} missing from {captured_tree}"
        );
    }

    // Replay from the exemplar's seed: identical release, identical tree.
    let replay_seed = ex.root.seed;
    mbp_obs::reset();
    let second = run(&mut broker, replay_seed);
    assert_eq!(first.price, second.price);
    assert_eq!(first.ncp, second.ncp);
    assert_eq!(first.model.weights(), second.model.weights());
    let spans = mbp_obs::recorder_snapshot();
    let root = spans
        .iter()
        .find(|s| s.seed == replay_seed)
        .expect("replayed root span");
    let replay_tree = mbp_obs::canonical_tree(&spans, root.trace);
    assert_eq!(captured_tree, replay_tree);
    disarm();
}

/// A buy that arrives while maintenance holds the core write lock waits
/// for it inside its own `mbp.core.buy` root: the `mbp.core.lock_wait`
/// span shares the root's trace id, parents to it, and is part of the
/// root's exemplar.
#[test]
fn contended_lock_wait_is_a_span_of_the_buys_trace() {
    let _g = serial();
    arm();
    mbp_obs::set_slow_threshold_micros(0);
    let shared = SharedBroker::new(listed_broker(53));
    let (before, seed) = (shared.contention_count(), 424_242);
    let (held_tx, held_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            shared.with_broker(|_| {
                held_tx.send(()).expect("the buyer is listening");
                // Hold the write lock until the buyer has found it taken.
                let deadline = Instant::now() + Duration::from_secs(5);
                while shared.contention_count() == before && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            })
        });
        held_rx.recv().expect("maintenance holds the write lock");
        mbp_obs::set_request_seed(seed);
        shared
            .buy_batch_into(
                ModelKind::LinearRegression,
                &[PurchaseRequest::ErrorBudget(1.5)],
                &mut seeded_rng(seed),
                &mut SaleArena::new(),
            )
            .unwrap();
    });
    let ex = mbp_obs::exemplars()
        .into_iter()
        .find(|e| e.root.seed == seed)
        .expect("the buy's exemplar");
    let wait = mbp_obs::recorder_snapshot()
        .into_iter()
        .find(|s| s.name == "mbp.core.lock_wait")
        .expect("the contended wait is a span");
    assert_eq!((wait.trace, wait.parent), (ex.root.trace, ex.root.span));
    assert!(ex.children.contains(&wait), "{:?}", ex.children);
    disarm();
}

/// A traced, listed broker over simulated data and its seller.
fn season_market() -> (Broker, Seller) {
    let mut rng = seeded_rng(61);
    let data = mbp_data::synth::simulated1(500, 4, 0.5, &mut rng).split(0.75, &mut rng);
    let seller = Seller::new(
        data.clone(),
        grid(10.0, 100.0, 8),
        ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
        DemandCurve::new(DemandShape::Uniform),
    );
    let mut broker = Broker::new(data);
    broker.support(ModelKind::LinearRegression, 1e-6).unwrap();
    let pricing = broker.price_from_research(&seller).pricing;
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing,
            Box::new(SquareLossTransform),
        )
        .unwrap();
    (broker, seller)
}

/// Runs a 600-buyer season on `threads` workers.
fn simulate_season(broker: &mut Broker, seller: &Seller, threads: usize) {
    let out = mbp_par::with_threads(threads, || {
        simulate_market(
            broker,
            seller,
            ModelKind::LinearRegression,
            SimulationConfig {
                n_buyers: 600,
                valuation_jitter: 0.0,
            },
            9090,
        )
        .unwrap()
    });
    assert!(out.served > 0, "some buyers must be served");
}

/// Every span recorded in a traced season whose parent is still in the
/// ring shares the parent's trace id and lies inside the parent's
/// interval, at 1 and 4 threads: contexts are set and restored in order,
/// also across `mbp-par` workers.
#[test]
fn ring_records_nest_inside_their_parents() {
    let _g = serial();
    for threads in [1, 4] {
        arm();
        let (mut broker, seller) = season_market();
        simulate_season(&mut broker, &seller, threads);
        let spans = mbp_obs::recorder_snapshot();
        let by_id: BTreeMap<u32, &mbp_obs::SpanData> = spans.iter().map(|s| (s.span, s)).collect();
        let mut checked = 0;
        for s in &spans {
            let Some(p) = by_id.get(&s.parent) else {
                continue;
            };
            assert_eq!(s.trace, p.trace, "{} shares {}'s trace", s.name, p.name);
            assert!(
                s.start_nanos >= p.start_nanos
                    && s.start_nanos + s.dur_nanos <= p.start_nanos + p.dur_nanos,
                "{} [{}, +{}] lies outside {} [{}, +{}] at {threads} threads",
                s.name,
                s.start_nanos,
                s.dur_nanos,
                p.name,
                p.start_nanos,
                p.dur_nanos
            );
            checked += 1;
        }
        assert!(checked > 0, "no parented span at {threads} threads");
        disarm();
    }
}

/// Satellite: a simulated season emits the same multiset of canonical
/// span trees at 1 and 4 worker threads — one `mbp.core.buy` trace per
/// shard batch; the span context follows work across `mbp-par` and only
/// timings/id assignment may differ.
#[test]
fn sharded_simulation_span_trees_match_across_thread_counts() {
    let _g = serial();
    let trees_at = |threads: usize| -> Vec<String> {
        arm();
        let (mut broker, seller) = season_market();
        simulate_season(&mut broker, &seller, threads);
        let spans = mbp_obs::recorder_snapshot();
        let quote_traces: BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.name == "mbp.core.buy")
            .map(|s| s.trace)
            .collect();
        // 600 buyers make two 512-buyer shards, each buying in one batch.
        assert_eq!(quote_traces.len(), 2, "one trace per shard batch");
        let mut trees: Vec<String> = quote_traces
            .iter()
            .map(|&t| mbp_obs::canonical_tree(&spans, t))
            .collect();
        trees.sort();
        disarm();
        trees
    };
    let one = trees_at(1);
    let four = trees_at(4);
    assert_eq!(one, four);
}
