//! Network load generator for the `mbp-serve` daemon.
//!
//! Two modes:
//!
//! * **Sweep** (no arguments): boots an in-process daemon and runs the
//!   full concurrent-connections sweep (`netbench::run`), prints the
//!   record, and writes it to `BENCH_serve_net.json` (overridable with
//!   `MBP_NET_OUT`; per-connection request count with
//!   `MBP_NET_REQUESTS`, default 2000).
//! * **Probe** (`loadgen --probe HOST:PORT [--shutdown]`): connects to an
//!   already-running daemon (e.g. `mbp-market serve` under CI), performs
//!   a `Hello` handshake, a ping, a quote, and a handful of buys, prints
//!   what came back, and — with `--shutdown` — asks the daemon to drain.
//!   Exits non-zero if any step fails, so CI can smoke-test the real
//!   binary end to end.

use mbp_bench::netbench;
use mbp_bench::report::print_record;
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
    if let Some(pos) = args.iter().position(|a| a == "--probe") {
        let Some(addr) = args.get(pos + 1) else {
            eprintln!("usage: loadgen --probe HOST:PORT [--shutdown]");
            std::process::exit(2);
        };
        let shutdown = args.iter().any(|a| a == "--shutdown");
        if let Err(e) = probe(addr, shutdown) {
            eprintln!("probe failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    mbp_obs::enable();
    let per_conn = std::env::var("MBP_NET_REQUESTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 64)
        .unwrap_or(2_000);
    println!(
        "sweeping {:?} connections, {per_conn} requests each ({} runs per point)...",
        netbench::SWEEP_CONNS,
        netbench::REPEATS
    );
    let rec = netbench::run(per_conn);
    print_record("Network serving sweep", &rec);
    let out = std::env::var("MBP_NET_OUT").unwrap_or_else(|_| "BENCH_serve_net.json".to_string());
    if let Err(e) = std::fs::write(&out, rec.to_json()) {
        eprintln!("could not write network baseline {out}: {e}");
        std::process::exit(1);
    }
    println!("network baseline written to {out}");
}
