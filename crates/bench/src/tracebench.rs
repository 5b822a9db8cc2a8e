//! Tracing-overhead baseline for the quote-serving path
//! (`BENCH_trace.json`).
//!
//! Measures what the mbp-obs causal-tracing layer costs on the
//! zero-allocation serve path (`buy_batch_into` on a batch of one, the
//! daemon's depth-1 shape) against a
//! high-dimensional listing, where per-quote work is dominated by noise
//! sampling — the regime the overhead budgets are written for:
//!
//! * **serve-floor** — the broker's per-request work rebuilt from the
//!   public pieces (`PricingFunction`, the error transform's
//!   `ncp_for_error`, `GaussianMechanism::perturb_into`) with no
//!   observability calls at all: the same listing
//!   and menu `HashMap` lookups, arena buffers, sale slot and sale-totals
//!   update as `buy_batch_into`, so the two differ only by observability.
//! * **serve-obs-disabled** — the real broker path with observability
//!   fully disabled; every obs call is an inert relaxed load.
//!   `overhead_disabled` compares this against the floor and must stay
//!   within the ≤2% budget.
//! * **serve-obs-metrics** — observability enabled, tracing off: the
//!   pre-tracing production configuration (counters, gauges, span
//!   histograms).
//! * **serve-traced** — tracing on: span ids and contexts, the labeled
//!   request histogram, and flight-recorder writes on every quote.
//!   `overhead_enabled` compares this against `serve-obs-metrics` — the
//!   marginal cost of turning tracing on — and must stay within ≤10%.
//!
//! The four workloads run interleaved: each of nine rounds (the record's
//! repeats) serves the whole quote stream once per workload, round-robin,
//! starting one workload later each round. Drift in the machine's speed
//! (frequency, neighbours on a shared host) then lands on every workload
//! alike. Each overhead is the median of its per-round ratios, and each
//! workload's throughput the median of its rounds, both with their min
//! and max. Every run starts from the same seed; `deterministic` asserts
//! all rounds produced identical digests (tracing never touches the
//! pricing or noise streams), and `traced_spans_cover_quotes` that the
//! traced run recorded at least one span per quote.

use crate::record::{per_sec, Record, Spread};
use mbp_core::error::{ErrorTransform, SquareLossTransform};
use mbp_core::market::{Broker, MarketError, PurchaseRequest, Sale, SaleArena, SalesTotals};
use mbp_core::{GaussianMechanism, NoiseMechanism, PricingFunction};
use mbp_ml::{LinearModel, ModelKind};
use mbp_randx::{seeded_rng, MbpRng};
use std::collections::HashMap;
use std::time::Instant;

/// Interleaved rounds per baseline; each runs every workload once.
const ROUNDS: usize = 9;

/// The workloads, in round-robin order.
const WORKLOADS: [&str; 4] = [
    "serve-floor",
    "serve-obs-disabled",
    "serve-obs-metrics",
    "serve-traced",
];

/// Same √-shaped arbitrage-free curve as the serving baseline.
fn dense_pricing() -> PricingFunction {
    let grid: Vec<f64> = (1..=512).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

/// Same mixed request stream as the serving baseline (all satisfiable).
fn request_stream(n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match i % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

fn listed_broker(dim: usize, pricing: &PricingFunction) -> Broker {
    let mut rng = seeded_rng(0x7ace);
    // Rows ≪ dim is fine: the ridge term keeps the Gram SPD, and the
    // model's content is irrelevant here — only its dimension matters.
    let rows = (dim / 4).max(64);
    let data = mbp_data::synth::simulated1(rows, dim, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 0.1)
        .expect("training failed");
    broker
        .publish(
            ModelKind::LinearRegression,
            pricing.clone(),
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");
    broker
}

/// A listing as the floor keeps it: the pricing curve and the boxed error
/// transform, as in the broker's own listing.
struct FloorListing {
    pricing: PricingFunction,
    transform: Box<dyn ErrorTransform + Send + Sync>,
}

/// The uninstrumented serve loop: the same work as `buy_batch_into` on a
/// batch of one — listing and menu lookups, resolve and price passes
/// through reused buffers, noise into a reused sale slot, the sale-totals
/// update — rebuilt from public pieces with no observability anywhere.
struct Floor {
    listings: HashMap<ModelKind, FloorListing>,
    menu: HashMap<ModelKind, LinearModel>,
    mech: Box<dyn NoiseMechanism>,
    outcomes: Vec<Result<f64, MarketError>>,
    xs: Vec<f64>,
    prices: Vec<f64>,
    sales: Vec<Sale>,
    totals: SalesTotals,
}

impl Floor {
    fn new(broker: &Broker, pricing: &PricingFunction) -> Self {
        let kind = ModelKind::LinearRegression;
        let model = broker.optimal_model(kind).expect("supported").clone();
        let listing = FloorListing {
            pricing: pricing.clone(),
            transform: Box::new(SquareLossTransform),
        };
        Floor {
            listings: HashMap::from([(kind, listing)]),
            menu: HashMap::from([(kind, model)]),
            mech: Box::new(GaussianMechanism),
            outcomes: Vec::new(),
            xs: Vec::new(),
            prices: Vec::new(),
            sales: Vec::new(),
            totals: SalesTotals::default(),
        }
    }

    /// Buys one request; returns `price + ncp`.
    fn buy(&mut self, request: PurchaseRequest, rng: &mut MbpRng) -> f64 {
        let kind = ModelKind::LinearRegression;
        let listing = self.listings.get(&kind).expect("listed");
        let model = self.menu.get(&kind).expect("supported");
        let ncp = match request {
            PurchaseRequest::AtNcp(delta) => delta,
            PurchaseRequest::ErrorBudget(err) => listing
                .transform
                .ncp_for_error(err)
                .expect("request is satisfiable"),
            PurchaseRequest::PriceBudget(budget) => {
                let x = listing
                    .pricing
                    .max_precision_for_budget(budget)
                    .expect("request is satisfiable");
                1.0 / x
            }
        };
        self.outcomes.clear();
        self.xs.clear();
        self.xs.push(1.0 / ncp);
        self.outcomes.push(Ok(ncp));
        listing.pricing.price_at_batch(&self.xs, &mut self.prices);
        if self.sales.is_empty() {
            self.sales.push(Sale {
                model: model.clone(),
                price: 0.0,
                ncp: 0.0,
                expected_error: 0.0,
            });
        }
        let sale = &mut self.sales[0];
        self.mech
            .perturb_into(model.weights(), ncp, rng, sale.model.weights_mut());
        sale.price = self.prices[0];
        sale.ncp = ncp;
        sale.expected_error = listing.transform.expected_error(ncp);
        for (outcome, sale) in self.outcomes.iter().zip(&self.sales) {
            if outcome.is_ok() {
                self.totals.add_sale(kind, sale.price);
            }
        }
        self.prices[0] + ncp
    }

    /// Serves the whole stream; returns its digest.
    fn serve(&mut self, requests: &[PurchaseRequest], rng: &mut MbpRng) -> f64 {
        requests.iter().map(|&r| self.buy(r, rng)).sum()
    }
}

/// Serves the whole stream through the broker's zero-allocation buy
/// path, one request per batch; returns its digest.
fn serve(
    broker: &mut Broker,
    requests: &[PurchaseRequest],
    rng: &mut MbpRng,
    arena: &mut SaleArena,
) -> f64 {
    let mut digest = 0.0;
    for (i, request) in requests.iter().enumerate() {
        mbp_obs::set_request_seed(i as u64);
        broker
            .buy_batch_into(
                ModelKind::LinearRegression,
                std::slice::from_ref(request),
                rng,
                arena,
            )
            .expect("listing exists");
        for sale in arena.results() {
            let sale = sale.expect("request is satisfiable");
            digest += sale.price + sale.ncp;
        }
    }
    digest
}

/// Runs the tracing-overhead baseline over `quotes` requests at listing
/// dimension `dim`. The committed record's 1024 is large enough that noise
/// sampling dominates each quote and small enough to stay on the serial
/// (deterministic) sampling path; tests use a small one, since the
/// overhead ratios are only meaningful at serving-scale dims.
pub fn run(quotes: usize, dim: usize) -> Record {
    let quotes = quotes.max(256);
    let pricing = dense_pricing();
    let requests = request_stream(quotes);

    // Save and restore the process-global obs configuration.
    let was_enabled = mbp_obs::is_enabled();
    let prev_threshold_nanos = mbp_obs::slow_threshold_nanos();
    mbp_obs::set_tracing(false);
    mbp_obs::disable();
    mbp_obs::set_slow_threshold_micros(u64::MAX / 1_000);

    let mut floor = Floor::new(&listed_broker(dim, &pricing), &pricing);
    let mut brokers: Vec<Broker> = (1..WORKLOADS.len())
        .map(|_| listed_broker(dim, &pricing))
        .collect();
    let mut arena = SaleArena::new();
    // `runs[w]` holds workload `w`'s `(seconds, digest)` per round.
    let mut runs: Vec<Vec<(f64, f64)>> = vec![Vec::with_capacity(ROUNDS); WORKLOADS.len()];
    let mut spans_recorded = 0;
    for round in 0..ROUNDS {
        for k in 0..WORKLOADS.len() {
            let w = (round + k) % WORKLOADS.len();
            // The floor and serve-obs-disabled run with observability
            // off; serve-obs-metrics turns it on; serve-traced adds
            // tracing.
            mbp_obs::set_enabled(w >= 2);
            mbp_obs::set_tracing(w == 3);
            let spans_before = mbp_obs::recorded_spans();
            let mut rng = seeded_rng(0x5e1);
            let t0 = Instant::now();
            let digest = match w {
                0 => floor.serve(&requests, &mut rng),
                _ => serve(&mut brokers[w - 1], &requests, &mut rng, &mut arena),
            };
            runs[w].push((t0.elapsed().as_secs_f64(), digest));
            if w == 3 {
                spans_recorded = mbp_obs::recorded_spans() - spans_before;
            }
        }
    }
    mbp_obs::set_tracing(false);
    mbp_obs::set_slow_threshold_micros(prev_threshold_nanos / 1_000);
    mbp_obs::set_enabled(was_enabled);

    let mut rec = Record::new(&[
        ("quotes", quotes as f64),
        ("model_dim", dim as f64),
        ("repeats", ROUNDS as f64),
    ]);
    // `num`'s time relative to `den`'s, round by round.
    let overhead = |num: usize, den: usize| {
        Spread::of(
            runs[num]
                .iter()
                .zip(&runs[den])
                .map(|(n, d)| n.0 / d.0 - 1.0),
        )
    };
    rec.ratio("overhead_disabled", false, overhead(1, 0));
    rec.ratio("overhead_enabled", false, overhead(3, 2));
    for (name, r) in WORKLOADS.iter().zip(&runs) {
        let qps = Spread::of(r.iter().map(|&(s, _)| per_sec(quotes, s)));
        rec.throughput(format!("{name}.quotes_per_sec"), "quotes/s", qps);
    }
    let reproduced = runs
        .iter()
        .all(|r| r.iter().all(|&(_, d)| d == runs[0][0].1));
    rec.invariant("deterministic", reproduced);
    rec.invariant("traced_spans_cover_quotes", spans_recorded >= quotes as u64);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The runs flip process-global obs state; tests serialize on one lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn smoke_run_is_deterministic_and_traced() {
        let _g = serial();
        let rec = run(256, 32);
        crate::record::assert_same_metrics(&rec, "BENCH_trace.json");
        for name in WORKLOADS {
            let qps = rec
                .median(&format!("{name}.quotes_per_sec"))
                .expect("measured");
            assert!(qps > 0.0, "{name}");
        }
        // Every workload, the floor included, serves the same stream to
        // the same digest.
        assert!(
            rec.holds("deterministic"),
            "a workload failed to reproduce its digest"
        );
        // Every traced quote contributes a root span plus its kernel spans.
        assert!(rec.holds("traced_spans_cover_quotes"));
    }
}
