//! The serve daemon's readiness waits, end to end over loopback TCP.
//!
//! An IO worker with nothing to do blocks in `poll(2)` until one of its
//! sockets is ready, its wake fd is poked, or its earliest idle deadline
//! passes (30 s here). These tests pin the wake paths that must cut that
//! wait short — a socket handed over by the accept thread, and a drain
//! started on another worker — and the request paths the wait serves,
//! depth 1 and a pipelined burst, bit for bit against an in-process
//! `Broker` replay. Every
//! client read times out after 5 s, so a missing wake fails a test
//! instead of hanging it.
//!
//! A worker whose read drained the socket and left nothing to serve goes
//! straight back to waiting; two tests pin that: a depth-1 exchange
//! runs one read pass per request, and an EOF that arrives right behind
//! a request is still seen.
//!
//! On a machine with more than one CPU, that wait first spins for one
//! short window when the previous wait was short too. Two tests pin what
//! the spin may cost: a client that pauses between requests misses at
//! most a couple of windows, and an idle connection spins at most once
//! and never busy-loops.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use mbp::core::error::SquareLossTransform;
use mbp::core::market::concurrent::SharedBroker;
use mbp::core::market::{Broker, PurchaseRequest};
use mbp::core::pricing::PricingFunction;
use mbp::ml::ModelKind;
use mbp::randx::seeded_rng;
use mbp_serve::wire::{
    decode_header, decode_response, digest_bytes, encode_buy_ok, encode_error, encode_quote_ok,
    encode_request, encode_response, market_error_code, Request, Response, DIGEST_SEED, HEADER_LEN,
};
use mbp_serve::{Client, ServerConfig, ServerHandle};

const KIND: ModelKind = ModelKind::LinearRegression;
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Serializes this binary's daemon tests: the obs registry is
/// process-global, and one test counts the read passes of its own server
/// only while no other server runs.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn listed_broker() -> Broker {
    let mut rng = seeded_rng(21);
    let data = mbp::data::synth::simulated1(400, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker.support(KIND, 1e-6).expect("training failed");
    let grid: Vec<f64> = (1..=64).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    let pricing = PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free");
    broker
        .publish(KIND, pricing, Box::new(SquareLossTransform))
        .expect("listing accepted");
    broker
}

fn start(io_threads: usize) -> ServerHandle {
    let cfg = ServerConfig {
        io_threads,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    mbp_serve::start(SharedBroker::new(listed_broker()), cfg).expect("server starts")
}

fn connect(handle: &ServerHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    client
}

/// Waits for the drain to finish, failing instead of hanging if it
/// does not within `READ_TIMEOUT` twice over.
fn wait_for_drain(handle: ServerHandle) {
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    rx.recv_timeout(2 * READ_TIMEOUT)
        .expect("ServerHandle::wait returns once the drain completes");
    waiter.join().expect("waiter thread");
}

#[test]
fn accepted_socket_wakes_a_worker_blocked_on_an_idle_connection() {
    let _serial = serial();
    let handle = start(1);
    let mut idle = connect(&handle);
    assert_eq!(idle.hello(1).expect("hello A"), Response::HelloOk);
    // The only worker now waits on A's socket with a 30 s deadline; B's
    // socket reaches it through the inbox, and only the wake fd says so.
    let mut fresh = connect(&handle);
    assert_eq!(fresh.hello(2).expect("hello B"), Response::HelloOk);
    handle.shutdown();
    wait_for_drain(handle);
}

#[test]
fn shutdown_frame_wakes_an_idle_connection_on_another_worker() {
    let _serial = serial();
    let handle = start(2);
    // Round-robin: A lands on worker 0, B on worker 1.
    let mut idle = connect(&handle);
    assert_eq!(idle.hello(3).expect("hello A"), Response::HelloOk);
    let mut closer = connect(&handle);
    assert_eq!(closer.hello(4).expect("hello B"), Response::HelloOk);
    assert_eq!(
        closer.shutdown_server().expect("shutdown"),
        Response::ShutdownAck
    );
    let eof = idle.recv().expect_err("the drained server closes A");
    assert_eq!(
        eof.kind(),
        std::io::ErrorKind::UnexpectedEof,
        "A must read EOF, not time out: {eof}"
    );
    wait_for_drain(handle);
}

/// Request `k`'s terms: NCP picks, error budgets, and affordable and
/// hopeless price budgets.
fn mixed_request(k: usize) -> PurchaseRequest {
    match (k / 2) % 4 {
        0 => PurchaseRequest::AtNcp(0.5 + (k % 29) as f64 * 0.11),
        1 => PurchaseRequest::ErrorBudget(0.4 + (k % 23) as f64 * 0.2),
        2 => PurchaseRequest::PriceBudget(8.0 + (k % 50) as f64),
        _ => PurchaseRequest::PriceBudget(0.001),
    }
}

/// Request `k` of the depth-1 stream: even `k` quote, odd `k` buy.
fn depth_one_request(k: usize) -> (bool, PurchaseRequest) {
    (k.is_multiple_of(2), mixed_request(k))
}

/// Request `k` of the pipelined burst: runs of six quotes and six buys,
/// so batch admission has same-verb runs to coalesce.
fn pipelined_request(k: usize) -> (bool, PurchaseRequest) {
    ((k / 6) % 2 == 1, mixed_request(k))
}

fn wire_request((quote, request): (bool, PurchaseRequest)) -> Request {
    if quote {
        Request::Quote {
            kind: KIND,
            request,
        }
    } else {
        Request::Buy {
            kind: KIND,
            request,
        }
    }
}

/// The response digest of an in-process `Broker` replay of `stream` on a
/// connection whose `Hello` carried `seed`: request ids are assigned from
/// 1 (the `Hello`), as the client does, and every request is served alone.
fn replay_digest(seed: u64, stream: &[(bool, PurchaseRequest)]) -> u64 {
    let mut broker = listed_broker();
    let mut rng = seeded_rng(seed);
    let mut frame = Vec::new();
    encode_response(&mut frame, 1, &Response::HelloOk);
    let mut digest = digest_bytes(DIGEST_SEED, &frame);
    for (k, &(quote, request)) in stream.iter().enumerate() {
        let id = u32::try_from(k + 2).expect("small stream");
        frame.clear();
        if quote {
            let priced = broker.price_batch(KIND, &[request]).expect("listing");
            match priced.first().expect("one result") {
                Ok(q) => encode_quote_ok(&mut frame, id, q.ncp, q.price, q.expected_error),
                Err(e) => encode_error(&mut frame, id, market_error_code(e), &e.to_string()),
            }
        } else {
            let bought = broker
                .buy_batch(KIND, &[request], &mut rng)
                .expect("listing");
            match bought.first().expect("one result") {
                Ok(s) => encode_buy_ok(
                    &mut frame,
                    id,
                    s.ncp,
                    s.price,
                    s.expected_error,
                    s.model.weights().as_slice(),
                ),
                Err(e) => encode_error(&mut frame, id, market_error_code(e), &e.to_string()),
            }
        }
        digest = digest_bytes(digest, &frame);
    }
    digest
}

#[test]
fn depth_one_quote_buy_stream_matches_the_in_process_replay() {
    let _serial = serial();
    const STREAM: usize = 96;
    const SEED: u64 = 77;
    let handle = start(0);
    let mut client = connect(&handle);
    assert_eq!(client.hello(SEED).expect("hello"), Response::HelloOk);
    let stream: Vec<_> = (0..STREAM).map(depth_one_request).collect();
    let (mut quotes, mut sales) = (0, 0);
    for &request in &stream {
        let (_, response) = client
            .call(&wire_request(request))
            .expect("one call at a time");
        match response {
            Response::QuoteOk { .. } => quotes += 1,
            Response::BuyOk { .. } => sales += 1,
            _ => {}
        }
    }
    assert!(quotes > 0 && sales > 0, "both verbs must succeed somewhere");
    handle.shutdown();
    wait_for_drain(handle);
    assert_eq!(
        client.digest(),
        replay_digest(SEED, &stream),
        "depth-1 responses must be bit-identical to the in-process replay"
    );
}

/// One connection writes a whole burst of mixed Buy/Quote frames before
/// reading any response. However the daemon coalesces the burst into
/// batches, the responses must be bit-identical to serving each request
/// alone in process — and at least one batch must really hold more than
/// one request, or the test would only re-check depth 1.
#[test]
fn pipelined_quote_buy_burst_matches_the_in_process_replay() {
    let _serial = serial();
    const BURST: usize = 96;
    const SEED: u64 = 78;
    // Batch sizes are recorded only while obs is enabled. The other tests
    // in this binary dispatch one request at a time, so a batch larger
    // than one can only come from this burst.
    mbp::obs::enable();
    let handle = start(0);
    let mut client = connect(&handle);
    assert_eq!(client.hello(SEED).expect("hello"), Response::HelloOk);
    let stream: Vec<_> = (0..BURST).map(pipelined_request).collect();
    let ids: Vec<u32> = stream
        .iter()
        .map(|&r| client.enqueue(&wire_request(r)))
        .collect();
    client.flush().expect("flush the burst");
    let (mut quotes, mut sales) = (0, 0);
    for &expected in &ids {
        let (id, response) = client.recv().expect("recv");
        assert_eq!(id, expected, "responses arrive in request order");
        match response {
            Response::QuoteOk { .. } => quotes += 1,
            Response::BuyOk { .. } => sales += 1,
            _ => {}
        }
    }
    assert!(quotes > 0 && sales > 0, "both verbs must succeed somewhere");
    handle.shutdown();
    wait_for_drain(handle);
    assert_eq!(
        client.digest(),
        replay_digest(SEED, &stream),
        "pipelined responses must be bit-identical to the in-process replay"
    );
    let largest = mbp::obs::snapshot()
        .histogram("mbp.serve.batch_size")
        .map_or(0.0, |h| h.max);
    assert!(
        largest > 1.0,
        "the burst must be dispatched in batches of more than one request, largest was {largest}"
    );
}

/// Observations of the daemon's read-phase span so far.
fn read_passes() -> u64 {
    mbp::obs::snapshot()
        .histogram("mbp.serve.read.seconds")
        .map_or(0, |h| h.count)
}

/// The `/metrics` counters behind a daemon's wire floor: socket read and
/// write syscalls, blocking `poll(2)` waits, and waits that spun first.
fn wire_floor_counters() -> [u64; 4] {
    [
        counter("mbp.serve.syscalls.read"),
        counter("mbp.serve.syscalls.write"),
        counter("mbp.serve.polls.blocking"),
        spins(),
    ]
}

/// Per wire-floor counter, what a depth-1 exchange may add beyond one per
/// request: the `Hello`, the pass that adopts the socket (a read that
/// finds nothing) and the waits around the accept and the drain.
const HANDSHAKE: [u64; 4] = [2, 1, 4, 2];

/// A worker runs one pass per depth-1 request: the pass that reads the
/// request, serves it and sees the socket drained goes straight back to
/// `poll(2)` instead of running an empty pass first. Besides the `N`
/// requests, the `Hello` and the pass that adopts the socket may each
/// read once. Underneath, each request costs one read and one write
/// syscall and at most one blocking poll and one spin, plus the
/// [`HANDSHAKE`] allowance.
#[test]
fn depth_one_exchange_runs_one_read_pass_per_request() {
    const N: u64 = 64;
    let _serial = serial();
    mbp::obs::enable();
    let before = read_passes();
    let floor_before = wire_floor_counters();
    let spin_polls_before = counter("mbp.serve.polls.spin");
    let handle = start(1);
    let mut client = connect(&handle);
    assert_eq!(client.hello(80).expect("hello"), Response::HelloOk);
    for k in 0..N as usize {
        client
            .call(&wire_request(depth_one_request(k)))
            .expect("one call at a time");
    }
    handle.shutdown();
    wait_for_drain(handle);
    let reads = read_passes() - before;
    assert!(
        reads <= N + 2,
        "{N} depth-1 requests took {reads} read passes; at most {} expected",
        N + 2
    );
    let names = ["read syscalls", "write syscalls", "blocking polls", "spins"];
    let floor_after = wire_floor_counters();
    for (((name, before), after), extra) in names
        .iter()
        .zip(floor_before)
        .zip(floor_after)
        .zip(HANDSHAKE)
    {
        let used = after - before;
        assert!(
            used <= N + extra,
            "{N} depth-1 requests took {used} {name}; at most {} expected",
            N + extra
        );
    }
    // Every spin polls at least once, and its polls are counted.
    let spin_polls = counter("mbp.serve.polls.spin") - spin_polls_before;
    assert!(spin_polls >= floor_after[3] - floor_before[3]);
}

/// Reads one response frame off a raw socket; `None` on a clean EOF.
fn read_frame(stream: &mut TcpStream) -> Option<(u32, Response)> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        let rest = header.get_mut(got..).expect("in bounds");
        match stream.read(rest).expect("read before the timeout") {
            0 if got == 0 => return None,
            0 => panic!("EOF inside a frame header"),
            n => got += n,
        }
    }
    let parsed = decode_header(&header)
        .expect("well-formed header")
        .expect("complete header");
    let mut payload = vec![0u8; parsed.payload_len as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    let response = decode_response(&parsed, &payload).expect("well-formed response");
    Some((parsed.request_id, response))
}

/// A Buy frame followed at once by the client's FIN: the short read that
/// takes the frame lets the worker wait on the socket, and the EOF behind
/// it must still wake the worker, which answers the buy and then closes.
#[test]
fn buy_then_write_shutdown_is_answered_then_closed() {
    let _serial = serial();
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    let mut out = Vec::new();
    encode_request(&mut out, 1, &Request::Hello { seed: 81 });
    stream.write_all(&out).expect("send hello");
    assert_eq!(read_frame(&mut stream), Some((1, Response::HelloOk)));
    out.clear();
    let buy = Request::Buy {
        kind: KIND,
        request: PurchaseRequest::AtNcp(0.75),
    };
    encode_request(&mut out, 2, &buy);
    stream.write_all(&out).expect("send buy");
    stream.shutdown(Shutdown::Write).expect("half-close");
    match read_frame(&mut stream) {
        Some((2, Response::BuyOk { .. })) => {}
        other => panic!("expected the buy's BuyOk, got {other:?}"),
    }
    assert_eq!(read_frame(&mut stream), None, "the daemon closes after EOF");
    handle.shutdown();
    wait_for_drain(handle);
}

/// The value of the counter `name` so far.
fn counter(name: &str) -> u64 {
    mbp::obs::snapshot().counter(name).unwrap_or(0)
}

/// Spins run so far: observations of the spin-time histogram.
fn spins() -> u64 {
    mbp::obs::snapshot()
        .histogram("mbp.serve.spin.seconds")
        .map_or(0, |h| h.count)
}

/// A client that pauses 5 ms before each request: a worker spins only
/// after a short wait, so at most the first window or two are missed
/// before it parks without spinning for the rest of the exchange.
#[test]
fn a_slow_client_misses_at_most_two_spin_windows() {
    const N: usize = 20;
    let _serial = serial();
    mbp::obs::enable();
    let before = counter("mbp.serve.spin_misses");
    let handle = start(1);
    let mut client = connect(&handle);
    assert_eq!(client.hello(82).expect("hello"), Response::HelloOk);
    for k in 0..N {
        std::thread::sleep(Duration::from_millis(5));
        client
            .call(&wire_request(depth_one_request(k)))
            .expect("one call at a time");
    }
    handle.shutdown();
    wait_for_drain(handle);
    let misses = counter("mbp.serve.spin_misses") - before;
    assert!(
        misses <= 2,
        "{N} requests 5 ms apart missed {misses} spin windows; at most 2 expected"
    );
}

/// A connection that goes idle after its `Hello`: the worker woken by the
/// accept spins at most once, and then parks. A wake byte left unread
/// would keep every later wait ready at once; the worker would then
/// busy-loop through read passes for the whole 100 ms instead of the one
/// or two its socket needs.
#[test]
fn an_idle_connection_spins_at_most_once_and_parks() {
    let _serial = serial();
    mbp::obs::enable();
    let (spins_before, reads_before) = (spins(), read_passes());
    let handle = start(1);
    let mut client = connect(&handle);
    assert_eq!(client.hello(83).expect("hello"), Response::HelloOk);
    std::thread::sleep(Duration::from_millis(100));
    let (spun, reads) = (spins() - spins_before, read_passes() - reads_before);
    handle.shutdown();
    wait_for_drain(handle);
    assert!(spun <= 1, "an idle connection caused {spun} spins");
    // The pass that adopts the socket and the pass that reads the
    // `Hello` (often one and the same), plus one spare.
    assert!(
        reads <= 3,
        "an idle connection ran {reads} read passes in 100 ms"
    );
}

/// Buy spans per warmed depth-1 request: decode, dispatch, the
/// `mbp.core.buy` root, buy_batch, resolve, price, encode and write.
const BUY_SPAN_BUDGET: f64 = 8.0;

/// Quote spans per warmed depth-1 request. A quote records five (decode,
/// dispatch, price_batch, encode and write); the budget is the six
/// measured when it was set.
const QUOTE_SPAN_BUDGET: f64 = 6.0;

/// Span observations so far: the counts of every `*.seconds` histogram
/// except the read pass (once per IO pass, not per request) and the idle
/// spin (a wait, not a span).
fn span_observations() -> u64 {
    mbp::obs::snapshot()
        .histograms
        .iter()
        .filter(|h| h.name.ends_with(".seconds"))
        .filter(|h| h.name != "mbp.serve.read.seconds" && h.name != "mbp.serve.spin.seconds")
        .map(|h| h.count)
        .sum()
}

/// Observations of the daemon's write-phase span so far.
fn write_passes() -> u64 {
    mbp::obs::snapshot()
        .histogram("mbp.serve.write.seconds")
        .map_or(0, |h| h.count)
}

/// Waits until the write span has `n` observations beyond `before`. The
/// write is the last span of an IO pass, so every span of the answered
/// requests has then been recorded, though the client may read a response
/// before the span that wrote it closes.
fn await_writes(before: u64, n: u64) {
    let deadline = std::time::Instant::now() + READ_TIMEOUT;
    while write_passes() - before < n {
        assert!(
            std::time::Instant::now() < deadline,
            "the daemon's write spans never reached {n}"
        );
        std::thread::yield_now();
    }
}

/// Spans recorded per warmed depth-1 request of one verb with obs on and
/// tracing off, the daemon's setting. An IO pass that serves nothing still
/// decodes, so each read pass beyond one per request is charged one span,
/// which is taken off.
fn spans_per_call(quote: bool) -> f64 {
    const WARM: u64 = 16;
    const N: u64 = 200;
    mbp::obs::enable();
    let writes = write_passes();
    let handle = start(1);
    let mut client = connect(&handle);
    assert_eq!(client.hello(84).expect("hello"), Response::HelloOk);
    let mut k = 0;
    let mut calls = |client: &mut Client, n: u64| {
        for _ in 0..n {
            client
                .call(&wire_request((quote, mixed_request(k))))
                .expect("one call at a time");
            k += 1;
        }
    };
    calls(&mut client, WARM);
    await_writes(writes, WARM + 1);
    let (spans, reads, writes) = (span_observations(), read_passes(), write_passes());
    calls(&mut client, N);
    await_writes(writes, N);
    let spans = span_observations() - spans;
    let idle_passes = (read_passes() - reads).saturating_sub(N);
    handle.shutdown();
    wait_for_drain(handle);
    (spans - idle_passes.min(spans)) as f64 / N as f64
}

/// A warmed depth-1 request records no more spans than the daemon's
/// budget for its verb: a span on the untraced request path costs two
/// clock reads and a histogram add on every request.
#[test]
fn a_warmed_depth_one_request_stays_within_its_span_budget() {
    let _serial = serial();
    let buy = spans_per_call(false);
    let quote = spans_per_call(true);
    assert!(
        buy <= BUY_SPAN_BUDGET,
        "a depth-1 buy recorded {buy} spans; the budget is {BUY_SPAN_BUDGET}"
    );
    assert!(
        quote <= QUOTE_SPAN_BUDGET,
        "a depth-1 quote recorded {quote} spans; the budget is {QUOTE_SPAN_BUDGET}"
    );
}
