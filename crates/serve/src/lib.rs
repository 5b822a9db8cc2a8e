//! `mbp-serve`: the marketplace's zero-dependency TCP front-end.
//!
//! The broker serves every listed purchase through one cache-resident
//! batch kernel (`quote_batch_into`, settled by `buy_batch_into`); this
//! crate puts a network in front of it. A thread-per-core accept/IO loop (a dedicated
//! [`mbp_par::ThreadPool`]) serves a compact length-prefixed binary
//! protocol ([`wire`]) over [`SharedBroker`]: each connection drains all
//! pending requests from its socket and dispatches runs of same-listing
//! buys/quotes as *one* batch-kernel call (**batch admission**), with
//! bounded per-connection queues, explicit backpressure frames, idle
//! timeouts, and a graceful drain-then-shutdown on SIGTERM or a control
//! frame. No daemon thread sleeps on a timer: an idle IO worker blocks in
//! `poll(2)` on its sockets and a per-worker wake fd (after spinning for
//! at most 50 µs when it has just served a request), which the accept
//! thread pokes when it hands the worker a new socket and every drain
//! (shutdown call, control frame, SIGTERM) pokes on every thread. A
//! `GET /metrics` Prometheus side port exposes the live
//! `mbp-obs` registry (`mbp.serve.*` spans, counters, and gauges cover
//! every phase: read/decode/batch/dispatch/encode/write; the
//! `mbp.serve.syscalls.*` and `mbp.serve.polls.*` counters count the
//! socket reads and writes and the IO workers' waits behind them).
//!
//! Determinism contract: each connection's noise RNG is seeded by its
//! client's `Hello` frame, every connection is pinned to one IO worker,
//! and the PR 7 kernel consumes RNG purely in request order — so the
//! responses (and the settled sale totals, whose exact sums ignore the
//! order across connections) are bit-identical to an in-process `Broker` run, no
//! matter how frames coalesced into batches. The loopback tests and the
//! wire-digest test in `mbp-bench` (netbench's canonical exchange, its
//! digests held as constants in the test) pin exactly that.
//!
//! [`SharedBroker`]: mbp_core::market::concurrent::SharedBroker

pub mod client;
mod conn;
mod server;
mod wake;
pub mod wire;

pub use client::Client;
pub use server::{start, ServerConfig, ServerHandle, ServerStats};
