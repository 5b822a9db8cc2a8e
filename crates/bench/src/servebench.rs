//! Quote-serving throughput baseline for the pricing fast path.
//!
//! Measures the serving-side hot paths:
//!
//! * **pricing-table** — a mixed stream of `price_for_ncp`,
//!   `max_precision_for_budget` and `price_at` resolutions against a dense
//!   pricing grid, answered by the [`PricingFunction`] every sale is
//!   priced by.
//! * **serve-single / serve-into / serve-batch** — end-to-end purchases
//!   against a published listing: one `buy_listed` per quote, one
//!   zero-allocation `buy_batch_into` batch of one per quote (the daemon's
//!   depth-1 shape), and `buy_batch_into` in chunks. Both batch workloads
//!   reuse one [`SaleArena`] per run, so they time the kernel, not the
//!   allocator.
//! * **factor-cache off/on** — ridge re-training across distinct ridge
//!   values via one-shot `ridge_closed_form` (re-forms the Gram matrix
//!   every call) vs a [`RidgeSolver`] that
//!   forms the Gram once and caches Cholesky factors per ridge.
//!
//! Every workload runs its quote stream [`REPEATS`] times from the same
//! seed; each metric is the median over those runs, with their min and
//! max, and `deterministic` asserts every run's output digest agrees
//! exactly. The ratchet writes the record as `BENCH_serving.json`.

use crate::record::{per_sec, percentile, quotient, repeat, Record, Spread};
use crate::{dense_pricing, listed_broker, request_stream, DENSE_KNOTS};
use mbp_core::market::{Broker, SaleArena};
use mbp_core::PricingFunction;
use mbp_ml::train::{ridge_closed_form, RidgeSolver};
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::time::Instant;

/// Runs of every workload; each metric is the median over them. A
/// scheduler preemption inflates one run's p99 by an order of magnitude
/// while barely moving its total seconds; the median of three runs moves
/// only when interference hits two of them.
pub const REPEATS: usize = 3;

/// One timed run of a workload.
struct Run {
    /// Quotes served per wall second.
    qps: f64,
    /// Median per-quote latency in microseconds.
    p50_us: f64,
    /// 99th-percentile per-quote latency in microseconds.
    p99_us: f64,
    /// Scalar output digest.
    digest: f64,
}

/// Runs `items` work items serving `quotes` quotes in all, [`REPEATS`]
/// times (`work` must reset its own state per run via the run index). Each
/// run is timed in blocks of `block` items, and every block gives one
/// latency sample amortized over the quotes it served.
fn measure(
    quotes: usize,
    items: usize,
    block: usize,
    mut work: impl FnMut(usize, usize) -> f64,
) -> Vec<Run> {
    let per_item = quotes as f64 / items as f64;
    repeat(REPEATS, |run| {
        let mut latencies = Vec::with_capacity(items.div_ceil(block));
        let mut digest = 0.0;
        let mut seconds = 0.0;
        let mut i = 0;
        while i < items {
            let take = block.min(items - i);
            let t0 = Instant::now();
            for j in i..i + take {
                digest += work(run, j);
            }
            let dt = t0.elapsed().as_secs_f64();
            seconds += dt;
            latencies.push(dt / (take as f64 * per_item));
            i += take;
        }
        Run {
            qps: per_sec(quotes, seconds),
            p50_us: percentile(&mut latencies, 0.50) * 1e6,
            p99_us: percentile(&mut latencies, 0.99) * 1e6,
            digest,
        }
    })
}

/// Adds a workload's throughput and latency percentiles to `rec`.
fn push_workload(rec: &mut Record, name: &str, runs: &[Run]) {
    let spread = |f: fn(&Run) -> f64| Spread::of(runs.iter().map(f));
    rec.throughput(
        format!("{name}.quotes_per_sec"),
        "quotes/s",
        spread(|r| r.qps),
    );
    rec.latency(format!("{name}.p50_us"), "us", spread(|r| r.p50_us));
    rec.latency(format!("{name}.p99_us"), "us", spread(|r| r.p99_us));
}

/// Every run reproduced the first run's digest.
fn reproduced(runs: &[Run]) -> bool {
    runs.iter().all(|r| r.digest == runs[0].digest)
}

/// `num`'s throughput over `den`'s, run by run.
fn speedup(num: &[Run], den: &[Run]) -> Spread {
    Spread::of(num.iter().zip(den).map(|(n, d)| quotient(n.qps, d.qps)))
}

/// The mixed pricing-resolution query stream: NCP pricing and budget
/// inversion interleaved, with inputs cycling through in-domain and
/// clamped out-of-domain values.
fn pricing_query(pf: &PricingFunction, i: usize) -> f64 {
    let x_max = *pf.grid().last().expect("non-empty grid");
    match i % 3 {
        0 => pf.price_for_ncp(0.05 + (i % 97) as f64 * 0.01),
        1 => pf
            .max_precision_for_budget(1.0 + (i % 89) as f64)
            .unwrap_or(0.0)
            .min(x_max),
        _ => pf.price_at((i % 131) as f64 * 0.5),
    }
}

/// Runs the full serving baseline with `quotes` quotes per workload.
pub fn run(quotes: usize) -> Record {
    let _span = mbp_obs::span("mbp.bench.servebench");
    let quotes = quotes.max(64);
    const BATCH: usize = 256;
    const PRICING_BLOCK: usize = 64;
    let pricing = dense_pricing();

    let lookups = measure(quotes, quotes, PRICING_BLOCK, |_, i| {
        pricing_query(&pricing, i)
    });

    let requests = request_stream(0, quotes);

    // serve-single: one buy_listed per quote. Fresh broker + RNG per run so
    // the runs are bit-identical.
    let mut singles: Vec<(Broker, mbp_randx::MbpRng)> = (0..REPEATS)
        .map(|_| (listed_broker(5), seeded_rng(0x5e1)))
        .collect();
    let serve_single = measure(quotes, quotes, 1, |run, i| {
        let (broker, rng) = &mut singles[run];
        let sale = broker
            .buy_listed(ModelKind::LinearRegression, requests[i], rng)
            .expect("request is satisfiable");
        sale.price + sale.ncp
    });

    // serve-into: a zero-allocation batch of one per quote, reusing one
    // arena.
    let mut intos: Vec<(Broker, mbp_randx::MbpRng, SaleArena)> = (0..REPEATS)
        .map(|_| (listed_broker(5), seeded_rng(0x5e1), SaleArena::new()))
        .collect();
    let serve_into = measure(quotes, quotes, 1, |run, i| {
        let (broker, rng, arena) = &mut intos[run];
        broker
            .buy_batch_into(ModelKind::LinearRegression, &requests[i..=i], rng, arena)
            .expect("listing exists");
        arena
            .results()
            .map(|r| {
                let sale = r.expect("request is satisfiable");
                sale.price + sale.ncp
            })
            .sum()
    });

    // serve-batch: same stream in BATCH-sized chunks, reusing one arena;
    // each work item is one whole batch, its latency amortized over the
    // batch's quotes.
    let mut batchers: Vec<(Broker, mbp_randx::MbpRng, SaleArena)> = (0..REPEATS)
        .map(|_| (listed_broker(5), seeded_rng(0x5e1), SaleArena::new()))
        .collect();
    let serve_batch = measure(quotes, quotes.div_ceil(BATCH), 1, |run, b| {
        let (broker, rng, arena) = &mut batchers[run];
        let lo = b * BATCH;
        let hi = (lo + BATCH).min(quotes);
        broker
            .buy_batch_into(ModelKind::LinearRegression, &requests[lo..hi], rng, arena)
            .expect("listing exists");
        arena
            .results()
            .map(|r| {
                let sale = r.expect("request is satisfiable");
                sale.price + sale.ncp
            })
            .sum()
    });

    // factor-cache off/on: retrain across RIDGES distinct ridge values,
    // twice over. "Off" re-forms the Gram matrix per call (the one-shot
    // path); "on" forms it once and caches one Cholesky factor per ridge,
    // so the second sweep is pure cache hits.
    const RIDGES: usize = 24;
    let mut rng = seeded_rng(0xD5);
    let train = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng)
        .split(0.75, &mut rng)
        .train;
    let solves = 2 * RIDGES;
    let mu_at = |i: usize| 1e-6 * ((i % RIDGES) + 1) as f64;
    let factor_off = measure(solves, solves, 1, |_, i| {
        ridge_closed_form(&train, mu_at(i)).expect("solvable")[0]
    });
    let mut solvers: Vec<RidgeSolver> = (0..REPEATS)
        .map(|_| RidgeSolver::new(&train).expect("gram formed"))
        .collect();
    let factor_on = measure(solves, solves, 1, |run, i| {
        solvers[run].solve(mu_at(i)).expect("solvable")[0]
    });

    let mut rec = Record::new(&[
        ("quotes", quotes as f64),
        ("repeats", REPEATS as f64),
        ("grid_points", DENSE_KNOTS as f64),
        ("model_dim", 5.0),
    ]);
    rec.ratio(
        "batch_speedup_vs_single",
        true,
        speedup(&serve_batch, &serve_single),
    );
    rec.ratio(
        "factor_cache_speedup",
        true,
        speedup(&factor_on, &factor_off),
    );
    let workloads = [
        ("pricing-table", &lookups),
        ("serve-single", &serve_single),
        ("serve-into", &serve_into),
        ("serve-batch", &serve_batch),
        ("factor-cache-off", &factor_off),
        ("factor-cache-on", &factor_on),
    ];
    for (name, runs) in workloads {
        push_workload(&mut rec, name, runs);
    }
    rec.invariant(
        "deterministic",
        workloads.iter().all(|(_, runs)| reproduced(runs)),
    );
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_complete() {
        let rec = run(512);
        crate::record::assert_same_metrics(&rec, "BENCH_serving.json");
        assert!(
            rec.holds("deterministic"),
            "a workload failed to reproduce its digest"
        );
        for m in rec
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".quotes_per_sec"))
        {
            let w = m.name.trim_end_matches(".quotes_per_sec");
            let median = |metric: &str| rec.median(&format!("{w}.{metric}")).expect("measured");
            assert!(median("quotes_per_sec") > 0.0, "{w}");
            let (p50, p99) = (median("p50_us"), median("p99_us"));
            assert!(p99 >= p50, "{w}: p99 {p99} < p50 {p50}");
        }
        assert!(rec.median("batch_speedup_vs_single").expect("measured") > 0.0);
    }
}
