//! The live Lemma 3 audit, end to end: every sale the daemon makes
//! observes `‖ĥ − h*‖² / δ` into `mbp.core.mechanism.lemma3_ratio`, and
//! the series' `_sum / _count` on `/metrics` is its running mean, which
//! Lemma 3 puts at 1.
//!
//! A test binary of its own: the obs registry is process-global, and
//! buys from other tests would land in the same series.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_serve::wire::{Request, Response};
use mbp_serve::{Client, ServerConfig};

const KIND: ModelKind = ModelKind::LinearRegression;
const DIM: usize = 90;
const BURSTS: usize = 32;
const BURST_LEN: usize = 64;

fn listed_broker() -> Broker {
    let mut rng = seeded_rng(0x1E3);
    let data = mbp_data::synth::simulated1(600, DIM, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("arbitrage-free");
    broker
        .publish(KIND, pricing, Box::new(SquareLossTransform))
        .expect("listing accepted");
    broker
}

/// The value of the Prometheus sample `name` in `body`.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the scrape:\n{body}"))
        .trim()
        .parse()
        .expect("numeric sample")
}

#[test]
fn lemma3_ratio_on_metrics_averages_one() {
    mbp_obs::enable();
    let cfg = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = mbp_serve::start(SharedBroker::new(listed_broker()), cfg).expect("server starts");
    let maddr = handle.metrics_addr().expect("metrics port bound");

    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(0x1E3A).expect("hello"), Response::HelloOk);
    for burst in 0..BURSTS {
        for i in 0..BURST_LEN {
            let ncp = 0.25 + ((burst * BURST_LEN + i) % 61) as f64 * 0.25;
            client.enqueue(&Request::Buy {
                kind: KIND,
                request: PurchaseRequest::AtNcp(ncp),
            });
        }
        client.flush().expect("flush");
        for _ in 0..BURST_LEN {
            let (_, resp) = client.recv().expect("recv");
            assert!(matches!(resp, Response::BuyOk { .. }), "{resp:?}");
        }
    }

    let mut http = TcpStream::connect(maddr).expect("connect metrics");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut body = String::new();
    http.read_to_string(&mut body).expect("read");
    handle.shutdown();
    handle.wait();

    let count = sample(&body, "mbp_core_mechanism_lemma3_ratio_count");
    let sum = sample(&body, "mbp_core_mechanism_lemma3_ratio_sum");
    let n = (BURSTS * BURST_LEN) as f64;
    assert_eq!(count, n, "one observation per sale");
    // Each ratio is χ²_d / d, with variance 2/d; the mean of N of them
    // has σ = √(2 / (d·N)).
    let sigma = (2.0 / (DIM as f64 * n)).sqrt();
    let mean = sum / count;
    assert!(
        (mean - 1.0).abs() < 4.0 * sigma,
        "running mean {mean} over {n} sales, σ = {sigma}"
    );
}
