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
//!   public pieces (`PricingTable`, `PhiMemo`, `GaussianMechanism::
//!   perturb_into`) with no observability calls at all: the same listing
//!   and menu `HashMap` lookups, arena buffers, sale slot and ledger push
//!   as `buy_batch_into`, so the two differ only by observability.
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
//! The four workloads run interleaved: each of nine rounds serves
//! the whole quote stream once per workload, round-robin, starting one
//! workload later each round. Drift in the machine's speed (frequency,
//! neighbours on a shared host) then lands on every workload alike. Each
//! overhead is the median of its per-round ratios, and each workload's
//! time the median of its rounds. Every run starts from the same seed;
//! `deterministic` asserts all rounds produced identical digests (tracing
//! never touches the pricing or noise streams).

use mbp_core::error::{ErrorTransform, SquareLossTransform};
use mbp_core::market::{Broker, MarketError, PurchaseRequest, Sale, SaleArena, Transaction};
use mbp_core::{GaussianMechanism, NoiseMechanism, PhiMemo, PricingFunction, PricingTable};
use mbp_ml::{LinearModel, ModelKind};
use mbp_randx::{seeded_rng, MbpRng};
use std::collections::HashMap;
use std::time::Instant;

/// Listing dimension for the committed baseline: large enough that noise
/// sampling dominates each quote, small enough to stay on the serial
/// (deterministic) sampling path.
const MODEL_DIM: usize = 1024;

/// Interleaved rounds per baseline; each runs every workload once.
const ROUNDS: usize = 9;

/// The workloads, in round-robin order.
const WORKLOADS: [&str; 4] = [
    "serve-floor",
    "serve-obs-disabled",
    "serve-obs-metrics",
    "serve-traced",
];

/// One measured serve configuration.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// Workload label.
    pub name: &'static str,
    /// Quotes served in one run.
    pub quotes: usize,
    /// Median wall seconds of one run over the rounds.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub quotes_per_sec: f64,
    /// Scalar output digest of the first run.
    pub digest: f64,
    /// Whether every later run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// The full tracing-overhead baseline.
#[derive(Debug, Clone)]
pub struct TraceBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Listing dimension.
    pub model_dim: usize,
    /// Quotes per workload run.
    pub quotes: usize,
    /// Interleaved rounds; each ran every workload once.
    pub rounds: usize,
    /// The four serve configurations, floor first.
    pub workloads: Vec<TraceWorkload>,
    /// Relative cost of the instrumented path with observability off,
    /// against the uninstrumented floor (`serve-obs-disabled` vs
    /// `serve-floor`), the median over rounds. Budget: ≤ 0.02.
    pub overhead_disabled: f64,
    /// Marginal relative cost of turning tracing on, against the
    /// metrics-enabled path (`serve-traced` vs `serve-obs-metrics`), the
    /// median over rounds. Budget: ≤ 0.10.
    pub overhead_enabled: f64,
    /// Spans the flight recorder captured during one traced run.
    pub spans_recorded: u64,
    /// Tail-latency exemplars held after the traced run.
    pub exemplars: usize,
    /// Every workload reproduced its digest on the second run.
    pub deterministic: bool,
}

/// The median of `v` (the mean of the middle two for an even length).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

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

/// A listing as the floor keeps it: the compiled table, the φ memo and
/// the boxed error transform, as in the broker's own listing.
struct FloorListing {
    table: PricingTable,
    phi: PhiMemo,
    transform: Box<dyn ErrorTransform + Send + Sync>,
}

/// The uninstrumented serve loop: the same work as `buy_batch_into` on a
/// batch of one — listing and menu lookups, resolve and price passes
/// through reused buffers, noise into a reused sale slot, the ledger push
/// — rebuilt from public pieces with no observability anywhere.
struct Floor {
    listings: HashMap<ModelKind, FloorListing>,
    menu: HashMap<ModelKind, LinearModel>,
    mech: Box<dyn NoiseMechanism>,
    outcomes: Vec<Result<f64, MarketError>>,
    xs: Vec<f64>,
    prices: Vec<f64>,
    sales: Vec<Sale>,
    ledger: Vec<Transaction>,
}

impl Floor {
    fn new(broker: &Broker, pricing: &PricingFunction, quotes: usize) -> Self {
        let kind = ModelKind::LinearRegression;
        let table = pricing.compile();
        let phi = PhiMemo::new(&SquareLossTransform, &table);
        let model = broker.optimal_model(kind).expect("supported").clone();
        let listing = FloorListing {
            table,
            phi,
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
            ledger: Vec::with_capacity(quotes),
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
                .phi
                .ncp_for_error(listing.transform.as_ref(), err)
                .expect("request is satisfiable"),
            PurchaseRequest::PriceBudget(budget) => {
                let x = listing
                    .table
                    .max_precision_for_budget(budget)
                    .expect("request is satisfiable");
                1.0 / x
            }
        };
        self.outcomes.clear();
        self.xs.clear();
        self.xs.push(1.0 / ncp);
        self.outcomes.push(Ok(ncp));
        listing.table.price_at_batch(&self.xs, &mut self.prices);
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
            let Ok(&ncp) = outcome.as_ref() else { continue };
            self.ledger.push(Transaction {
                kind,
                ncp,
                price: sale.price,
            });
        }
        self.prices[0] + ncp
    }

    /// Serves the whole stream; returns its digest.
    fn serve(&mut self, requests: &[PurchaseRequest], rng: &mut MbpRng) -> f64 {
        self.ledger.clear();
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

/// Runs the tracing-overhead baseline at the committed listing dimension.
pub fn run(quotes: usize) -> TraceBaseline {
    run_with_dim(quotes, MODEL_DIM)
}

/// Runs the baseline at an explicit listing dimension (tests use a small
/// one; the overhead ratios are only meaningful at serving-scale dims).
pub fn run_with_dim(quotes: usize, dim: usize) -> TraceBaseline {
    let quotes = quotes.max(256);
    let pricing = dense_pricing();
    let requests = request_stream(quotes);

    // Save and restore the process-global obs configuration.
    let was_enabled = mbp_obs::is_enabled();
    let prev_threshold_nanos = mbp_obs::slow_threshold_nanos();
    mbp_obs::set_tracing(false);
    mbp_obs::disable();
    mbp_obs::set_slow_threshold_micros(u64::MAX / 1_000);

    let mut floor = Floor::new(&listed_broker(dim, &pricing), &pricing, quotes);
    let mut brokers: Vec<Broker> = (1..WORKLOADS.len())
        .map(|_| {
            let mut broker = listed_broker(dim, &pricing);
            broker.reserve_ledger(quotes * ROUNDS);
            broker
        })
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
    let exemplars = mbp_obs::exemplars().len();

    let workloads: Vec<TraceWorkload> = WORKLOADS
        .iter()
        .zip(&runs)
        .map(|(&name, r)| {
            let seconds = median(r.iter().map(|&(s, _)| s).collect());
            let digest = r[0].1;
            TraceWorkload {
                name,
                quotes,
                seconds,
                quotes_per_sec: if seconds > 0.0 {
                    quotes as f64 / seconds
                } else {
                    0.0
                },
                digest,
                deterministic: r.iter().all(|&(_, d)| d == digest),
            }
        })
        .collect();
    // The median over rounds of `num`'s time relative to `den`'s.
    let overhead = |num: usize, den: usize| {
        median(
            runs[num]
                .iter()
                .zip(&runs[den])
                .map(|(n, d)| n.0 / d.0 - 1.0)
                .collect(),
        )
    };
    let overhead_disabled = overhead(1, 0);
    let overhead_enabled = overhead(3, 2);
    let deterministic = workloads.iter().all(|w| w.deterministic);

    TraceBaseline {
        meta: crate::RunMeta::from_env(),
        model_dim: dim,
        quotes,
        rounds: ROUNDS,
        workloads,
        overhead_disabled,
        overhead_enabled,
        spans_recorded,
        exemplars,
        deterministic,
    }
}

impl TraceBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_trace.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!("  \"model_dim\": {},\n", self.model_dim));
        out.push_str(&format!("  \"quotes\": {},\n", self.quotes));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!(
            "  \"overhead_disabled\": {:.4},\n",
            self.overhead_disabled
        ));
        out.push_str(&format!(
            "  \"overhead_enabled\": {:.4},\n",
            self.overhead_enabled
        ));
        out.push_str(&format!("  \"spans_recorded\": {},\n", self.spans_recorded));
        out.push_str(&format!("  \"exemplars\": {},\n", self.exemplars));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"quotes\": {}, \"seconds\": {:.6}, \"quotes_per_sec\": {:.1}, \"digest\": {:.6}, \"deterministic\": {}}}{}\n",
                w.name,
                w.quotes,
                w.seconds,
                w.quotes_per_sec,
                w.digest,
                w.deterministic,
                if i + 1 == self.workloads.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
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
        let b = run_with_dim(256, 32);
        assert_eq!(b.workloads.len(), 4);
        assert!(b.workloads.iter().all(|w| w.quotes_per_sec > 0.0));
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        // Every traced quote contributes a root span plus its kernel spans.
        assert!(
            b.spans_recorded >= b.quotes as u64,
            "traced run recorded {} spans for {} quotes",
            b.spans_recorded,
            b.quotes
        );
        // The broker workloads serve the same stream: identical digests.
        assert_eq!(b.workloads[1].digest, b.workloads[2].digest);
        assert_eq!(b.workloads[2].digest, b.workloads[3].digest);
    }

    #[test]
    fn json_artifact_has_required_fields() {
        let _g = serial();
        let b = run_with_dim(256, 32);
        let json = b.to_json();
        for key in [
            "\"hardware_threads\"",
            "\"commit\"",
            "\"generated_at\"",
            "\"model_dim\"",
            "\"overhead_disabled\"",
            "\"overhead_enabled\"",
            "\"spans_recorded\"",
            "\"serve-floor\"",
            "\"serve-obs-disabled\"",
            "\"serve-obs-metrics\"",
            "\"serve-traced\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let parsed = crate::ratchet::parse_json(&json).expect("artifact parses");
        assert!(parsed.get("overhead_enabled").is_some());
    }
}
