//! Network-serving saturation sweep for the `mbp-serve` daemon.
//!
//! Boots an in-process daemon on an ephemeral loopback port and drives it
//! with real TCP clients at 1/4/16/64 concurrent connections. Every client
//! replays a fixed per-connection request stream (seeded by its `Hello`
//! frame) in pipelined bursts, which the daemon coalesces into batch
//! kernel calls; each point runs twice and keeps the faster run.
//!
//! The byte stream each client receives is a pure function of the sweep
//! point. [`exchange_digest`] drives that canonical exchange and folds the
//! clients' response digests; `tests/wire_digests.rs` pins its values as
//! constants. Bursts are kept far below the server's admission queue limit
//! so backpressure frames (which are timing-dependent) never enter the
//! response streams being digested.
//!
//! The `loadgen` binary serializes the result to `BENCH_serve_net.json`.

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{Request, Response};
use mbp_serve::{Client, ServerConfig};
use std::time::Instant;

/// Pipelined requests per flush; far below the server queue limit so the
/// digested streams never contain timing-dependent backpressure frames.
const BURST: usize = 64;

/// Connection counts swept, in order.
pub const SWEEP_CONNS: [usize; 4] = [1, 4, 16, 64];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct NetSweepPoint {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests served across all connections in one run.
    pub requests: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Requests per second derived from `seconds`.
    pub rps: f64,
    /// Median per-request latency in microseconds (burst-amortized, best
    /// of the two runs).
    pub p50_micros: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_micros: f64,
}

/// The full network-serving baseline (`BENCH_serve_net.json`).
#[derive(Debug, Clone)]
pub struct NetBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Fixed request-stream length per connection.
    pub requests_per_conn: usize,
    /// Batched-admission sweep over [`SWEEP_CONNS`].
    pub sweep: Vec<NetSweepPoint>,
    /// Highest RPS across the sweep.
    pub saturation_rps: f64,
    /// Connection count that achieved `saturation_rps`.
    pub saturation_conns: usize,
}

fn dense_pricing(points: usize) -> PricingFunction {
    let grid: Vec<f64> = (1..=points).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

fn listed_broker(seed: u64) -> Broker {
    let mut rng = seeded_rng(seed);
    let data = mbp_data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    broker
        .publish(
            ModelKind::LinearRegression,
            dense_pricing(512),
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");
    broker
}

/// The per-connection request stream: all three request kinds, all
/// satisfiable, offset by connection index so streams differ per client.
fn conn_stream(conn: usize, n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match (conn + i) % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

struct RunResult {
    seconds: f64,
    latencies: Vec<f64>,
    digest: u64,
}

/// Boots a fresh daemon, drives `conns` clients through their streams, and
/// tears the daemon down. Returns wall time, burst-amortized per-request
/// latencies from every client, and the order-folded response digest.
fn drive(conns: usize, per_conn: usize) -> RunResult {
    let shared = SharedBroker::new(listed_broker(0xA11));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let t0 = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let hello = client.hello(0xC0_0000 + c as u64).expect("hello");
                assert_eq!(hello, Response::HelloOk);
                let stream = conn_stream(c, per_conn);
                let mut latencies = Vec::with_capacity(per_conn.div_ceil(BURST));
                for burst in stream.chunks(BURST) {
                    let b0 = Instant::now();
                    for &request in burst {
                        client.enqueue(&Request::Buy {
                            kind: ModelKind::LinearRegression,
                            request,
                        });
                    }
                    client.flush().expect("flush");
                    for _ in 0..burst.len() {
                        let (_, resp) = client.recv().expect("recv");
                        assert!(
                            matches!(resp, Response::BuyOk { .. }),
                            "stream is satisfiable, got {resp:?}"
                        );
                    }
                    latencies.push(b0.elapsed().as_secs_f64() / burst.len() as f64);
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

fn percentile_micros(latencies: &mut [f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
    latencies[idx] * 1e6
}

/// The response digest of one canonical exchange: `conns` clients with
/// `Hello` seeds `0xC0_0000 + c`, each sending its `per_conn` buys in
/// 64-buy bursts to a fresh daemon over the 512-knot `10·√x` listing;
/// the per-client FNV digests folded in connection order.
pub fn exchange_digest(conns: usize, per_conn: usize) -> u64 {
    drive(conns, per_conn).digest
}

/// Runs one sweep point twice from identical seeds, keeping the faster
/// run's wall time and the better tail.
fn measure_point(conns: usize, per_conn: usize) -> NetSweepPoint {
    let mut first = drive(conns, per_conn);
    let mut second = drive(conns, per_conn);
    let requests = conns * per_conn;
    let seconds = first.seconds.min(second.seconds);
    let p50 = percentile_micros(&mut first.latencies, 0.50)
        .min(percentile_micros(&mut second.latencies, 0.50));
    let p99 = percentile_micros(&mut first.latencies, 0.99)
        .min(percentile_micros(&mut second.latencies, 0.99));
    NetSweepPoint {
        connections: conns,
        requests,
        seconds,
        rps: if seconds > 0.0 {
            requests as f64 / seconds
        } else {
            0.0
        },
        p50_micros: p50,
        p99_micros: p99,
    }
}

/// Runs the full network sweep with `per_conn` requests per connection.
pub fn run(per_conn: usize) -> NetBaseline {
    let _span = mbp_obs::span("mbp.bench.netbench");
    let per_conn = per_conn.max(BURST);

    let sweep: Vec<NetSweepPoint> = SWEEP_CONNS
        .iter()
        .map(|&conns| measure_point(conns, per_conn))
        .collect();

    let best = sweep
        .iter()
        .max_by(|a, b| a.rps.total_cmp(&b.rps))
        .expect("sweep is non-empty");
    let saturation_rps = best.rps;
    let saturation_conns = best.connections;

    NetBaseline {
        meta: crate::RunMeta::from_env(),
        requests_per_conn: per_conn,
        sweep,
        saturation_rps,
        saturation_conns,
    }
}

impl NetBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_serve_net.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!(
            "  \"requests_per_conn\": {},\n",
            self.requests_per_conn
        ));
        out.push_str(&format!(
            "  \"saturation_rps\": {:.1},\n",
            self.saturation_rps
        ));
        out.push_str(&format!(
            "  \"saturation_conns\": {},\n",
            self.saturation_conns
        ));
        out.push_str("  \"sweep\": [\n");
        for (i, p) in self.sweep.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"connections\": {}, \"requests\": {}, \"seconds\": {:.6}, \"rps\": {:.1}, \"p50_micros\": {:.3}, \"p99_micros\": {:.3}}}{}\n",
                p.connections,
                p.requests,
                p.seconds,
                p.rps,
                p.p50_micros,
                p.p99_micros,
                if i + 1 == self.sweep.len() { "" } else { "," }
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
    fn smoke_sweep_is_complete_and_serializes_every_field() {
        let b = run(64);
        assert_eq!(b.sweep.len(), SWEEP_CONNS.len());
        assert!(b.sweep.iter().all(|p| p.rps > 0.0));
        let json = b.to_json();
        for key in [
            "\"hardware_threads\"",
            "\"commit\"",
            "\"generated_at\"",
            "\"requests_per_conn\"",
            "\"saturation_rps\"",
            "\"saturation_conns\"",
            "\"connections\"",
            "\"p99_micros\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }
}
