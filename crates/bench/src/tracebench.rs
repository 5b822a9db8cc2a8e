//! Tracing-overhead baseline for the quote-serving path
//! (`BENCH_trace.json`).
//!
//! Measures what the mbp-obs layer costs on the zero-allocation serve path
//! (`buy_batch_into` on a batch of one, the daemon's depth-1 shape)
//! against a high-dimensional listing, where per-quote work is dominated
//! by noise sampling — the regime the overhead budgets are written for.
//!
//! The overhead is counted, not differenced from a second copy of the
//! kernel: [`obs_calls`] makes exactly the obs calls of one such request,
//! in the same order, with no market work, and `tests/obs_replay.rs` pins
//! it to the kernel metric by metric. Each of nine rounds (the record's
//! repeats) times the replay and then the real request stream in three
//! obs modes:
//!
//! * **serve-obs-disabled** — observability off; every obs call is an
//!   inert relaxed load.
//! * **serve-obs-metrics** — observability on, tracing off: counters,
//!   gauges and span histograms.
//! * **serve-traced** — tracing on: span ids and contexts, the labeled
//!   request histogram, and flight-recorder writes on every quote.
//!
//! `overhead_disabled` is the disabled replay's cost over the disabled
//! request's (budget ≤2%). `overhead_enabled` is what turning tracing on
//! adds to the replay, over the metrics-on request's cost (budget ≤10%).
//! The replay's timed blocks rotate through the modes, and the real
//! stream's modes start one later each round, so drift in the machine's
//! speed lands on every mode alike. Each overhead is the median of its
//! per-round ratios, and each mode's throughput and replay cost the median
//! of its rounds, all with their min and max. Every run starts from the
//! same seed; `deterministic` asserts all rounds produced identical
//! digests (tracing never touches the pricing or noise streams), and
//! `traced_spans_cover_quotes` that the traced run recorded at least one
//! span per quote.

use crate::record::{per_sec, percentile, Record, Spread};
use crate::{listed_broker, request_stream};
use mbp_core::market::{Broker, PurchaseRequest, SaleArena};
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, MbpRng};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved rounds per baseline; each runs every mode once.
const ROUNDS: usize = 9;

/// Replay calls per timed block.
const BLOCK: usize = 250;

/// The obs modes, in round-robin order.
const MODES: [&str; 3] = ["serve-obs-disabled", "serve-obs-metrics", "serve-traced"];

/// The obs calls of one warmed depth-1 `buy_batch_into` whose request is
/// served, in the kernel's order and with none of its market work: the
/// request seed, the `mbp.core.buy` root around the `buy_batch` span and
/// its `.resolve` and `.price` children, the kernel's counters, the
/// guarded Lemma 3 observation and the revenue gauge.
pub fn obs_calls(seed: u64) {
    mbp_obs::set_request_seed(seed);
    let _root = mbp_obs::trace_root("mbp.core.buy", "linear_regression", "gaussian");
    let _span = mbp_obs::span("mbp.core.buy_batch");
    mbp_obs::counter_add("mbp.core.pricing.table_hit", 1);
    drop(mbp_obs::span("mbp.core.buy_batch.resolve"));
    drop(mbp_obs::span("mbp.core.buy_batch.price"));
    mbp_obs::inc("mbp.core.mechanism.gaussian.count");
    if mbp_obs::is_enabled() {
        mbp_obs::observe("mbp.core.mechanism.lemma3_ratio", black_box(1.0));
    }
    mbp_obs::counter_add("mbp.core.buy.count", 1);
    mbp_obs::counter_add("mbp.core.buy.rejected", 0);
    mbp_obs::gauge_add("mbp.core.revenue.total", black_box(1.0));
}

/// Switches the process-global obs state to mode `m` of [`MODES`].
fn set_mode(m: usize) {
    mbp_obs::set_enabled(m >= 1);
    mbp_obs::set_tracing(m == 2);
}

/// Replays [`obs_calls`] once per quote in every mode, timed in blocks of
/// [`BLOCK`] calls that rotate through the modes, so drift in the
/// machine's speed lands on every mode alike. Returns each mode's median
/// block seconds per call, which a preemption inside one block does not
/// move.
fn replay(quotes: usize) -> [f64; 3] {
    let mut per_call: [Vec<f64>; 3] = Default::default();
    for (b, lo) in (0..quotes).step_by(BLOCK).enumerate() {
        let hi = (lo + BLOCK).min(quotes);
        for k in 0..MODES.len() {
            let m = (b + k) % MODES.len();
            set_mode(m);
            let t0 = Instant::now();
            for i in lo..hi {
                obs_calls(black_box(i as u64));
            }
            per_call[m].push(t0.elapsed().as_secs_f64() / (hi - lo) as f64);
        }
    }
    per_call.map(|mut samples| percentile(&mut samples, 0.5))
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

/// One mode's round: the replay's and the real request's seconds per
/// quote, and the stream's digest.
struct Round {
    replay: f64,
    serve: f64,
    digest: f64,
}

/// Runs the tracing-overhead baseline over `quotes` requests at listing
/// dimension `dim`. The committed record's 1024 is large enough that noise
/// sampling dominates each quote and small enough to stay on the serial
/// (deterministic) sampling path; tests use a small one, since the
/// overhead ratios are only meaningful at serving-scale dims.
pub fn run(quotes: usize, dim: usize) -> Record {
    let quotes = quotes.max(256);
    let requests = request_stream(0, quotes);

    // Save and restore the process-global obs configuration.
    let was_enabled = mbp_obs::is_enabled();
    let prev_threshold_nanos = mbp_obs::slow_threshold_nanos();
    mbp_obs::set_tracing(false);
    mbp_obs::disable();
    mbp_obs::set_slow_threshold_micros(u64::MAX / 1_000);

    let mut broker = listed_broker(dim);
    let mut arena = SaleArena::new();
    // `rounds[m]` holds mode `m`'s rounds.
    let mut rounds: Vec<Vec<Round>> = MODES.iter().map(|_| Vec::with_capacity(ROUNDS)).collect();
    let mut spans_recorded = 0;
    for round in 0..ROUNDS {
        let replays = replay(quotes);
        for k in 0..MODES.len() {
            let m = (round + k) % MODES.len();
            set_mode(m);
            let spans_before = mbp_obs::recorded_spans();
            let mut rng = seeded_rng(0x5e1);
            let t0 = Instant::now();
            let digest = serve(&mut broker, &requests, &mut rng, &mut arena);
            let serve = t0.elapsed().as_secs_f64() / quotes as f64;
            rounds[m].push(Round {
                replay: replays[m],
                serve,
                digest,
            });
            if m == 2 {
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
    let [off, metrics, traced] = [&rounds[0], &rounds[1], &rounds[2]];
    rec.ratio(
        "overhead_disabled",
        false,
        Spread::of(off.iter().map(|r| r.replay / r.serve)),
    );
    rec.ratio(
        "overhead_enabled",
        false,
        Spread::of(
            traced
                .iter()
                .zip(metrics)
                .map(|(t, m)| (t.replay - m.replay) / m.serve),
        ),
    );
    for (name, r) in MODES.iter().zip(&rounds) {
        let qps = Spread::of(r.iter().map(|r| per_sec(1, r.serve)));
        rec.throughput(format!("{name}.quotes_per_sec"), "quotes/s", qps);
        let ns = Spread::of(r.iter().map(|r| r.replay * 1e9));
        rec.latency(format!("{name}.obs_ns_per_quote"), "ns", ns);
    }
    let first = rounds[0][0].digest;
    let reproduced = rounds.iter().flatten().all(|r| r.digest == first);
    rec.invariant("deterministic", reproduced);
    rec.invariant("traced_spans_cover_quotes", spans_recorded >= quotes as u64);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_traced() {
        let rec = run(256, 32);
        crate::record::assert_same_metrics(&rec, "BENCH_trace.json");
        for name in MODES {
            let median = |metric: &str| rec.median(&format!("{name}.{metric}")).expect("measured");
            assert!(median("quotes_per_sec") > 0.0, "{name}");
            assert!(median("obs_ns_per_quote") > 0.0, "{name}");
        }
        // Every mode serves the same stream to the same digest.
        assert!(
            rec.holds("deterministic"),
            "a mode failed to reproduce its digest"
        );
        // Every traced quote contributes a root span plus its kernel spans.
        assert!(rec.holds("traced_spans_cover_quotes"));
    }
}
