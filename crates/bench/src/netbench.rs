//! Network-serving saturation sweep for the `mbp-serve` daemon.
//!
//! Boots an in-process daemon on an ephemeral loopback port and drives it
//! with real TCP clients at 1/4/16/64 concurrent connections. Every client
//! replays a fixed per-connection request stream (seeded by its `Hello`
//! frame) in pipelined bursts, which the daemon coalesces into batch
//! kernel calls. Each request is timed from its burst's flush to the
//! `recv` of its own response, so a point's p50/p99 rest on every request
//! of a run; each point runs [`REPEATS`] times and every metric is the
//! median over those runs, with their min and max.
//!
//! The byte stream each client receives is a pure function of the sweep
//! point. [`exchange_digest`] drives that canonical exchange and folds the
//! clients' response digests; `tests/wire_digests.rs` pins its values as
//! constants. Bursts are kept far below the server's admission queue limit
//! so backpressure frames (which are timing-dependent) never enter the
//! response streams being digested.
//!
//! The ratchet writes the record as `BENCH_serve_net.json`.

use crate::record::{per_sec, percentile, repeat, Record, Spread};
use crate::{listed_broker, request_stream};
use mbp_core::market::concurrent::SharedBroker;
use mbp_ml::ModelKind;
use mbp_serve::wire::{Request, Response};
use mbp_serve::{Client, ServerConfig};
use std::time::Instant;

/// Pipelined requests per flush; far below the server queue limit so the
/// digested streams never contain timing-dependent backpressure frames.
const BURST: usize = 64;

/// Connection counts swept, in order.
pub const SWEEP_CONNS: [usize; 4] = [1, 4, 16, 64];

/// Runs of every sweep point; each metric is the median over them.
pub const REPEATS: usize = 3;

struct RunResult {
    seconds: f64,
    latencies: Vec<f64>,
    digest: u64,
}

/// Boots a fresh daemon, drives `conns` clients through their streams, and
/// tears the daemon down. Returns wall time, every request's latency
/// (from its burst's flush to its response) from every client, and the
/// order-folded response digest.
fn drive(conns: usize, per_conn: usize) -> RunResult {
    let shared = SharedBroker::new(listed_broker(5));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let t0 = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let hello = client.hello(0xC0_0000 + c as u64).expect("hello");
                assert_eq!(hello, Response::HelloOk);
                let stream = request_stream(c, per_conn);
                let mut latencies = Vec::with_capacity(per_conn);
                for burst in stream.chunks(BURST) {
                    for &request in burst {
                        client.enqueue(&Request::Buy {
                            kind: ModelKind::LinearRegression,
                            request,
                        });
                    }
                    let flushed = Instant::now();
                    client.flush().expect("flush");
                    for _ in 0..burst.len() {
                        let (_, resp) = client.recv().expect("recv");
                        latencies.push(flushed.elapsed().as_secs_f64());
                        assert!(
                            matches!(resp, Response::BuyOk { .. }),
                            "stream is satisfiable, got {resp:?}"
                        );
                    }
                }
                (latencies, client.digest())
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut digest = mbp_serve::wire::DIGEST_SEED;
    for w in workers {
        let (lat, d) = w.join().expect("client thread");
        latencies.extend(lat);
        digest = mbp_serve::wire::digest_bytes(digest, &d.to_le_bytes());
    }
    let seconds = t0.elapsed().as_secs_f64();

    handle.shutdown();
    handle.wait();
    RunResult {
        seconds,
        latencies,
        digest,
    }
}

/// The response digest of one canonical exchange: `conns` clients with
/// `Hello` seeds `0xC0_0000 + c`, each sending its `per_conn` buys in
/// 64-buy bursts to a fresh daemon over the 512-knot `10·√x` listing;
/// the per-client FNV digests folded in connection order.
pub fn exchange_digest(conns: usize, per_conn: usize) -> u64 {
    drive(conns, per_conn).digest
}

/// The `q`-quantile request latency of each run, in microseconds.
fn latency_us(runs: &mut [RunResult], q: f64) -> Spread {
    Spread::of(
        runs.iter_mut()
            .map(|r| percentile(&mut r.latencies, q) * 1e6),
    )
}

/// Runs the full network sweep with `per_conn` requests per connection.
pub fn run(per_conn: usize) -> Record {
    let _span = mbp_obs::span("mbp.bench.netbench");
    let per_conn = per_conn.max(BURST);
    let mut rec = Record::new(&[
        ("requests_per_conn", per_conn as f64),
        ("repeats", REPEATS as f64),
    ]);
    let mut saturation = Spread::of([]);
    for conns in SWEEP_CONNS {
        let mut runs = repeat(REPEATS, |_| drive(conns, per_conn));
        let rps = Spread::of(runs.iter().map(|r| per_sec(conns * per_conn, r.seconds)));
        if rps.median > saturation.median {
            saturation = rps;
        }
        rec.throughput(format!("{conns}conns.rps"), "requests/s", rps);
        rec.latency(
            format!("{conns}conns.p50_us"),
            "us",
            latency_us(&mut runs, 0.50),
        );
        rec.latency(
            format!("{conns}conns.p99_us"),
            "us",
            latency_us(&mut runs, 0.99),
        );
    }
    // The sweep point with the highest median throughput.
    rec.throughput("saturation_rps", "requests/s", saturation);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_complete_and_times_every_request() {
        let sampled = drive(4, 128);
        assert_eq!(sampled.latencies.len(), 4 * 128, "one sample per request");
        let rec = run(64);
        crate::record::assert_same_metrics(&rec, "BENCH_serve_net.json");
        for conns in SWEEP_CONNS {
            assert!(rec.median(&format!("{conns}conns.rps")).expect("measured") > 0.0);
        }
        assert!(rec.median("saturation_rps").expect("measured") > 0.0);
    }
}
