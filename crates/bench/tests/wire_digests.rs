//! Regression pin for the daemon's response bytes. The response digests
//! of netbench's canonical exchange ([`netbench::exchange_digest`]: the
//! 512-knot `10·√x` listing, `Hello` seeds `0xC0_0000 + c`, 64-buy
//! bursts, 2000 buys per connection) fold every byte the daemon sent
//! back, so they are behavior, not performance, and live here as
//! constants rather than in a benchmark file. A change that moves any
//! price, NCP or released weight by one bit fails this test.

use mbp_bench::netbench::{self, SWEEP_CONNS};

/// Requests per connection in the pinned exchange.
const PER_CONN: usize = 2000;

/// Folded response digests at 1, 4, 16 and 64 connections.
const DIGESTS: [u64; 4] = [
    8833536238666918947,
    5902559599996548924,
    12291010020680833357,
    11385141649263114156,
];

#[test]
fn canonical_exchange_digests_are_pinned() {
    let live: Vec<u64> = SWEEP_CONNS
        .iter()
        .map(|&conns| netbench::exchange_digest(conns, PER_CONN))
        .collect();
    assert_eq!(
        live, DIGESTS,
        "response digests at {SWEEP_CONNS:?} connections drifted; if the wire change is \
         intended, re-pin them here"
    );
}
