//! Quote-serving throughput baseline for the pricing fast path.
//!
//! Measures the serving-side hot paths introduced with the compiled
//! [`PricingTable`](mbp_core::PricingTable):
//!
//! * **pricing-scan vs pricing-table** — a mixed stream of
//!   `price_for_ncp` and `max_precision_for_budget` resolutions against a
//!   dense pricing grid, answered by the original piecewise-linear scan
//!   and by the compiled table. Both are single-threaded CPU-bound
//!   lookups, so the ratio is honest on any machine, including a
//!   single-core container.
//! * **serve-single / serve-into / serve-batch** — end-to-end purchases
//!   against a published listing: one `buy_listed` per quote, one
//!   zero-allocation `buy_batch_into` batch of one per quote (the daemon's
//!   depth-1 shape), and `buy_batch` in chunks.
//! * **factor-cache off/on** — ridge re-training across distinct ridge
//!   values via one-shot `ridge_closed_form` (re-forms the Gram matrix
//!   every call) vs a [`RidgeSolver`] that
//!   forms the Gram once and caches Cholesky factors per ridge.
//!
//! Every workload runs its quote stream twice from the same seed and
//! records both digests; `deterministic` asserts they agree exactly. The
//! `all` binary serializes the result to `BENCH_serving.json`.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_core::PricingFunction;
use mbp_ml::train::{ridge_closed_form, RidgeSolver};
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use std::time::Instant;

/// One measured serving workload.
#[derive(Debug, Clone)]
pub struct ServingWorkload {
    /// Workload label.
    pub name: &'static str,
    /// Quotes (or solves) served in one run.
    pub quotes: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub quotes_per_sec: f64,
    /// Median per-quote latency in microseconds (best of the two runs).
    pub p50_micros: f64,
    /// 99th-percentile per-quote latency in microseconds (best of the
    /// two runs).
    pub p99_micros: f64,
    /// Scalar output digest of the first run.
    pub digest: f64,
    /// Whether the second run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// The full serving baseline.
#[derive(Debug, Clone)]
pub struct ServingBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Knots in the benchmark pricing grid.
    pub grid_points: usize,
    /// Model dimension of the listed instance.
    pub model_dim: usize,
    /// Per-workload measurements.
    pub workloads: Vec<ServingWorkload>,
    /// `pricing-scan` throughput ÷ `pricing-table` throughput, inverted so
    /// values above 1.0 mean the compiled table is faster.
    pub table_speedup_vs_scan: f64,
    /// `serve-batch` throughput over `serve-single` throughput.
    pub batch_speedup_vs_single: f64,
    /// Cached-factor solve throughput over one-shot retraining throughput.
    pub factor_cache_speedup: f64,
    /// Scan and table answered the shared query stream identically
    /// (relative 1e-9; the table's fused-slope interior evaluation may
    /// differ from the scan by strict rounding).
    pub table_matches_scan: bool,
    /// Every workload reproduced its digest on the second run.
    pub deterministic: bool,
}

/// Timed samples from one run: total seconds plus per-quote latencies
/// (each sample amortized over `block` quotes).
struct RunTiming {
    seconds: f64,
    latencies: Vec<f64>,
}

fn run_blocks(n: usize, block: usize, mut work: impl FnMut(usize) -> f64) -> (RunTiming, f64) {
    let mut latencies = Vec::with_capacity(n.div_ceil(block));
    let mut digest = 0.0;
    let mut seconds = 0.0;
    let mut i = 0;
    while i < n {
        let take = block.min(n - i);
        let t0 = Instant::now();
        for j in i..i + take {
            digest += work(j);
        }
        let dt = t0.elapsed().as_secs_f64();
        seconds += dt;
        latencies.push(dt / take as f64);
        i += take;
    }
    (RunTiming { seconds, latencies }, digest)
}

fn percentile_micros(latencies: &mut [f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
    latencies[idx] * 1e6
}

/// Runs `work` twice (it must reset its own state per run via `run`
/// index), keeping the faster run's wall time and checking digest
/// equality. Percentiles are taken per run and the minimum kept: a
/// scheduler preemption inflates one run's p99 by an order of magnitude
/// while barely moving its total seconds, so "faster run's tail" is not
/// spike-proof — "best tail of two identically-seeded runs" is, unless
/// interference hits both runs.
fn measure(
    name: &'static str,
    quotes: usize,
    block: usize,
    mut work: impl FnMut(usize, usize) -> f64,
) -> ServingWorkload {
    let (mut first, digest_a) = run_blocks(quotes, block, |i| work(0, i));
    let (mut second, digest_b) = run_blocks(quotes, block, |i| work(1, i));
    let seconds = first.seconds.min(second.seconds);
    let p50_a = percentile_micros(&mut first.latencies, 0.50);
    let p99_a = percentile_micros(&mut first.latencies, 0.99);
    let p50_b = percentile_micros(&mut second.latencies, 0.50);
    let p99_b = percentile_micros(&mut second.latencies, 0.99);
    ServingWorkload {
        name,
        quotes,
        seconds,
        quotes_per_sec: if seconds > 0.0 {
            quotes as f64 / seconds
        } else {
            0.0
        },
        p50_micros: p50_a.min(p50_b),
        p99_micros: p99_a.min(p99_b),
        digest: digest_a,
        deterministic: digest_a == digest_b,
    }
}

/// A dense arbitrage-free pricing curve: `p̄(x) = 10·√x` sampled on
/// `points` knots (monotone and subadditive).
fn dense_pricing(points: usize) -> PricingFunction {
    let grid: Vec<f64> = (1..=points).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
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

fn table_query(table: &mbp_core::PricingTable, i: usize) -> f64 {
    let x_max = *table.knots().last().expect("non-empty grid");
    match i % 3 {
        0 => table.price_for_ncp(0.05 + (i % 97) as f64 * 0.01),
        1 => table
            .max_precision_for_budget(1.0 + (i % 89) as f64)
            .unwrap_or(0.0)
            .min(x_max),
        _ => table.price_at((i % 131) as f64 * 0.5),
    }
}

/// The end-to-end purchase request stream: all three request kinds, all
/// satisfiable against [`dense_pricing`] with the identity transform.
fn request_stream(n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match i % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

fn listed_broker(seed: u64, pricing: &PricingFunction) -> Broker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
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

/// Runs the full serving baseline with `quotes` quotes per workload.
pub fn run(quotes: usize) -> ServingBaseline {
    let _span = mbp_obs::span("mbp.bench.servebench");
    let quotes = quotes.max(64);
    const GRID_POINTS: usize = 512;
    const BATCH: usize = 256;
    const PRICING_BLOCK: usize = 64;
    let pricing = dense_pricing(GRID_POINTS);
    let table = pricing.compile();

    let scan = measure("pricing-scan", quotes, PRICING_BLOCK, |_, i| {
        pricing_query(&pricing, i)
    });
    let tab = measure("pricing-table", quotes, PRICING_BLOCK, |_, i| {
        table_query(&table, i)
    });
    let table_matches_scan = (scan.digest - tab.digest).abs() <= 1e-9 * scan.digest.abs().max(1.0);

    let requests = request_stream(quotes);

    // serve-single: one buy_listed per quote. Fresh broker + RNG per run so
    // the two runs are bit-identical.
    let mut singles: Vec<(Broker, mbp_randx::MbpRng)> = (0..2)
        .map(|_| (listed_broker(0xA11, &pricing), seeded_rng(0x5e1)))
        .collect();
    let serve_single = measure("serve-single", quotes, 1, |run, i| {
        let (broker, rng) = &mut singles[run];
        let sale = broker
            .buy_listed(ModelKind::LinearRegression, requests[i], rng)
            .expect("request is satisfiable");
        sale.price + sale.ncp
    });

    // serve-into: a zero-allocation batch of one per quote, reusing one
    // arena.
    let mut intos: Vec<(Broker, mbp_randx::MbpRng, SaleArena)> = (0..2)
        .map(|_| {
            let mut broker = listed_broker(0xA11, &pricing);
            broker.reserve_ledger(quotes);
            (broker, seeded_rng(0x5e1), SaleArena::new())
        })
        .collect();
    let serve_into = measure("serve-into", quotes, 1, |run, i| {
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

    // serve-batch: same stream in BATCH-sized chunks; the per-"quote" work
    // item is one whole batch, so latencies are per batch.
    let n_batches = quotes.div_ceil(BATCH);
    let mut batchers: Vec<(Broker, mbp_randx::MbpRng)> = (0..2)
        .map(|_| (listed_broker(0xA11, &pricing), seeded_rng(0x5e1)))
        .collect();
    let serve_batch_raw = measure("serve-batch", n_batches, 1, |run, b| {
        let (broker, rng) = &mut batchers[run];
        let lo = b * BATCH;
        let hi = (lo + BATCH).min(quotes);
        broker
            .buy_batch(ModelKind::LinearRegression, &requests[lo..hi], rng)
            .expect("listing exists")
            .into_iter()
            .map(|r| {
                let sale = r.expect("request is satisfiable");
                sale.price + sale.ncp
            })
            .sum()
    });
    // Re-express the batch workload in per-quote units.
    let serve_batch = ServingWorkload {
        name: "serve-batch",
        quotes,
        quotes_per_sec: if serve_batch_raw.seconds > 0.0 {
            quotes as f64 / serve_batch_raw.seconds
        } else {
            0.0
        },
        p50_micros: serve_batch_raw.p50_micros / BATCH as f64,
        p99_micros: serve_batch_raw.p99_micros / BATCH as f64,
        ..serve_batch_raw
    };

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
    let factor_off = measure("factor-cache-off", solves, 1, |_, i| {
        ridge_closed_form(&train, mu_at(i)).expect("solvable")[0]
    });
    let mut solvers: Vec<RidgeSolver> = (0..2)
        .map(|_| RidgeSolver::new(&train).expect("gram formed"))
        .collect();
    let factor_on = measure("factor-cache-on", solves, 1, |run, i| {
        solvers[run].solve(mu_at(i)).expect("solvable")[0]
    });

    let ratio = |num: &ServingWorkload, den: &ServingWorkload| {
        if den.quotes_per_sec > 0.0 {
            num.quotes_per_sec / den.quotes_per_sec
        } else {
            1.0
        }
    };
    let table_speedup_vs_scan = ratio(&tab, &scan);
    let batch_speedup_vs_single = ratio(&serve_batch, &serve_single);
    let factor_cache_speedup = ratio(&factor_on, &factor_off);
    let workloads = vec![
        scan,
        tab,
        serve_single,
        serve_into,
        serve_batch,
        factor_off,
        factor_on,
    ];
    let deterministic = workloads.iter().all(|w| w.deterministic) && table_matches_scan;

    ServingBaseline {
        meta: crate::RunMeta::from_env(),
        grid_points: GRID_POINTS,
        model_dim: 5,
        workloads,
        table_speedup_vs_scan,
        batch_speedup_vs_single,
        factor_cache_speedup,
        table_matches_scan,
        deterministic,
    }
}

impl ServingBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_serving.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!("  \"grid_points\": {},\n", self.grid_points));
        out.push_str(&format!("  \"model_dim\": {},\n", self.model_dim));
        out.push_str(&format!(
            "  \"table_speedup_vs_scan\": {:.4},\n",
            self.table_speedup_vs_scan
        ));
        out.push_str(&format!(
            "  \"batch_speedup_vs_single\": {:.4},\n",
            self.batch_speedup_vs_single
        ));
        out.push_str(&format!(
            "  \"factor_cache_speedup\": {:.4},\n",
            self.factor_cache_speedup
        ));
        out.push_str(&format!(
            "  \"table_matches_scan\": {},\n",
            self.table_matches_scan
        ));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"quotes\": {}, \"seconds\": {:.6}, \"quotes_per_sec\": {:.1}, \"p50_micros\": {:.3}, \"p99_micros\": {:.3}, \"digest\": {:.6}, \"deterministic\": {}}}{}\n",
                w.name,
                w.quotes,
                w.seconds,
                w.quotes_per_sec,
                w.p50_micros,
                w.p99_micros,
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

    #[test]
    fn smoke_run_is_deterministic_and_complete() {
        let b = run(512);
        assert_eq!(b.workloads.len(), 7);
        assert!(b.workloads.iter().all(|w| w.quotes_per_sec > 0.0));
        assert!(b.table_matches_scan, "table answers diverged from scan");
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        assert!(b.table_speedup_vs_scan > 0.0);
        assert!(b.factor_cache_speedup > 0.0);
    }

    #[test]
    fn json_artifact_has_required_fields() {
        let b = run(256);
        let json = b.to_json();
        for key in [
            "\"hardware_threads\"",
            "\"commit\"",
            "\"generated_at\"",
            "\"grid_points\"",
            "\"table_speedup_vs_scan\"",
            "\"batch_speedup_vs_single\"",
            "\"factor_cache_speedup\"",
            "\"quotes_per_sec\"",
            "\"p50_micros\"",
            "\"p99_micros\"",
            "\"deterministic\"",
            "\"pricing-table\"",
            "\"factor-cache-on\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn percentiles_are_ordered() {
        let b = run(256);
        for w in &b.workloads {
            assert!(
                w.p99_micros >= w.p50_micros,
                "{}: p99 {} < p50 {}",
                w.name,
                w.p99_micros,
                w.p50_micros
            );
        }
    }
}
