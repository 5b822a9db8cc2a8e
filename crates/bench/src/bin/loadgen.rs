//! Probe for a running `mbp-serve` daemon.
//!
//! `loadgen --probe HOST:PORT [--shutdown]` connects to an already-running
//! daemon (e.g. `mbp-market serve` under CI), performs a `Hello`
//! handshake, a ping, a quote, and a handful of buys, prints what came
//! back, and — with `--shutdown` — asks the daemon to drain. Exits
//! non-zero if any step fails, so CI can smoke-test the real binary end
//! to end. The loopback throughput sweep (`BENCH_serve_net.json`) is the
//! `ratchet` binary's.

use mbp_core::market::PurchaseRequest;
use mbp_ml::ModelKind;
use mbp_serve::wire::{Request, Response};
use mbp_serve::Client;

fn probe(addr: &str, shutdown: bool) -> Result<(), String> {
    let mut client = Client::connect(
        addr.parse::<std::net::SocketAddr>()
            .map_err(|e| format!("bad address {addr}: {e}"))?,
    )
    .map_err(|e| format!("connect {addr}: {e}"))?;

    let hello = client.hello(0xBEEF).map_err(|e| format!("hello: {e}"))?;
    if hello != Response::HelloOk {
        return Err(format!("hello rejected: {hello:?}"));
    }
    println!("hello: ok");

    let (_, pong) = client
        .call(&Request::Ping)
        .map_err(|e| format!("ping: {e}"))?;
    if pong != Response::Pong {
        return Err(format!("ping answered {pong:?}"));
    }
    println!("ping: pong");

    let (_, quote) = client
        .call(&Request::Quote {
            kind: ModelKind::LinearRegression,
            request: PurchaseRequest::AtNcp(1.0),
        })
        .map_err(|e| format!("quote: {e}"))?;
    match quote {
        Response::QuoteOk {
            ncp,
            price,
            expected_error,
        } => println!("quote: ncp={ncp:.4} price={price:.4} expected_error={expected_error:.4}"),
        other => return Err(format!("quote answered {other:?}")),
    }

    for i in 0..8u32 {
        let (_, bought) = client
            .call(&Request::Buy {
                kind: ModelKind::LinearRegression,
                request: PurchaseRequest::AtNcp(0.5 + f64::from(i) * 0.2),
            })
            .map_err(|e| format!("buy {i}: {e}"))?;
        match bought {
            Response::BuyOk {
                ncp,
                price,
                weights,
                ..
            } => println!(
                "buy[{i}]: ncp={ncp:.4} price={price:.4} dim={}",
                weights.len()
            ),
            other => return Err(format!("buy {i} answered {other:?}")),
        }
    }
    println!("response digest: {:#018x}", client.digest());

    if shutdown {
        let ack = client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        if ack != Response::ShutdownAck {
            return Err(format!("shutdown answered {ack:?}"));
        }
        println!("shutdown: acknowledged, daemon draining");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let probe_at = args.iter().position(|a| a == "--probe");
    let Some(addr) = probe_at.and_then(|i| args.get(i + 1)) else {
        eprintln!("usage: loadgen --probe HOST:PORT [--shutdown]");
        std::process::exit(2);
    };
    let shutdown = args.iter().any(|a| a == "--shutdown");
    if let Err(e) = probe(addr, shutdown) {
        eprintln!("probe failed: {e}");
        std::process::exit(1);
    }
}
