//! Closed-loop clients: pipelined buy bursts, depth-1 quote/buy
//! request–response, and the seller's reprice loop.
//!
//! Latency is one sample per request, timed from the burst's flush (or
//! the call's send) to that response's arrival; it is never amortized
//! over a burst.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mbp_core::market::epochs::EpochConfig;
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::solve_bv_dp;
use mbp_ml::ModelKind;
use mbp_serve::wire::{Request, Response};
use mbp_serve::Client;

use crate::inputs;
use crate::layers::SpanLog;

/// The listing every workload trades.
pub const KIND: ModelKind = ModelKind::LinearRegression;
/// Buys per pipelined burst; depth-1 patterns send this many calls per
/// step. Each step records one digest snapshot and one curve range.
pub const BURST: usize = 64;

/// What the buyer sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Pipelined bursts of [`BURST`] buys.
    Bursts,
    /// Depth 1, alternating `Quote` and `Buy`.
    QuoteBuy,
    /// Depth 1, buys only.
    Buys,
}

impl Pattern {
    /// `true` when stream request `i` is sent as a `Quote`.
    pub fn is_quote(self, i: u64) -> bool {
        self == Pattern::QuoteBuy && i.is_multiple_of(2)
    }
}

/// Timing of the phases every client thread walks through together.
pub struct Phases {
    /// Warm-up before the timed window (not measured).
    pub warmup: Duration,
    /// Length of the timed window.
    pub window: Duration,
    /// Rendezvous of all client threads between warm-up and the window;
    /// the main thread scrapes `/metrics` between its two waits.
    pub gate: Gate,
}

/// A reusable rendezvous of a fixed number of threads that a failing
/// thread can abandon: every waiter, present or later, is then released
/// with an error instead of waiting for a thread that will never come.
pub struct Gate {
    parties: usize,
    /// (threads arrived in this round, round number, abandoned).
    state: Mutex<(usize, u64, bool)>,
    turned: Condvar,
}

impl Gate {
    /// A gate for `parties` threads.
    pub fn new(parties: usize) -> Gate {
        Gate {
            parties: parties.max(1),
            state: Mutex::new((0, 0, false)),
            turned: Condvar::new(),
        }
    }

    /// Waits until all parties arrive, or fails once one has abandoned.
    pub fn wait(&self) -> Result<(), String> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let round = s.1;
        s.0 += 1;
        if s.0 == self.parties {
            *s = (0, round + 1, s.2);
            self.turned.notify_all();
        }
        while s.1 == round && !s.2 {
            s = self.turned.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.2 {
            return Err("a peer client thread failed".into());
        }
        Ok(())
    }

    /// Releases every waiter, now and later, with an error.
    pub fn abandon(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        self.turned.notify_all();
    }
}

/// Progress shared by the seller and the buyer: publishes, so each
/// step's responses can be checked against the curves that could have
/// priced it, and buyer requests, which set the seller's pace.
#[derive(Default)]
pub struct CurveClock {
    /// Publishes sent so far.
    pub sent: AtomicUsize,
    /// Publishes acknowledged so far.
    pub acked: AtomicUsize,
    /// Set once the seller has stopped, whether it finished or failed.
    pub seller_done: AtomicBool,
    /// Buyer requests answered inside the window.
    bought: Mutex<u64>,
    progress: Condvar,
}

impl CurveClock {
    /// Counts `n` more buyer requests answered inside the window.
    pub fn advance(&self, n: u64) {
        *self.bought.lock().unwrap_or_else(PoisonError::into_inner) += n;
        self.progress.notify_all();
    }

    /// Waits until `target` buyer requests were answered; `false` when
    /// `deadline` comes first.
    pub fn wait_bought(&self, target: u64, deadline: Instant) -> bool {
        let mut bought = self.bought.lock().unwrap_or_else(PoisonError::into_inner);
        while *bought < target {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            bought = self
                .progress
                .wait_timeout(bought, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// Everything one buyer connection saw.
#[derive(Default)]
pub struct BuyerLog {
    /// Connection index (selects the `Hello` seed and request stream).
    pub conn: usize,
    /// Stream requests sent, warm-up included.
    pub sent: u64,
    /// `(requests so far, client digest)` after every burst (every
    /// [`BURST`] requests at depth 1).
    pub snapshots: Vec<(u64, u64)>,
    /// `Error` or unexpected responses.
    pub errors: u64,
    /// Per request answered inside the window: (seconds from the window's
    /// start to the response, latency in µs).
    pub samples: Vec<(f32, f32)>,
    /// Requests answered inside the window.
    pub window_requests: u64,
    /// Quotes answered inside the window.
    pub window_quotes: u64,
    /// `(ncp, price)` of every response in stream order (NaN when it was
    /// not a `BuyOk`): the repricing workloads' checks replay these.
    pub sales: Vec<(f64, f64)>,
    /// Per step, the range of curve indices that could have priced it.
    pub curve_range: Vec<(usize, usize)>,
}

fn unexpected(log: &mut BuyerLog, what: &str, resp: &Response) {
    log.errors += 1;
    if log.errors <= 3 {
        eprintln!("marketbench: conn {} {what} answered {resp:?}", log.conn);
    }
}

/// Runs one buyer connection: warm-up, gate, timed window. With a
/// `clock`, the window runs on until the seller is done. A failure before
/// the gate abandons it, so the other client threads do not wait forever.
#[allow(clippy::too_many_arguments)]
pub fn buyer(
    client: &mut Client,
    seed: u64,
    conn: usize,
    pattern: Pattern,
    phases: &Phases,
    clock: Option<&CurveClock>,
    spans: &mut SpanLog,
    between: impl FnOnce(),
) -> Result<BuyerLog, String> {
    let mut log = BuyerLog {
        conn,
        ..BuyerLog::default()
    };
    let mut warm = || -> Result<(), String> {
        match client.hello(inputs::hello_seed(seed, conn)) {
            Ok(Response::HelloOk) => {}
            other => return Err(format!("hello answered {other:?}")),
        }
        let warm_until = Instant::now() + phases.warmup;
        while Instant::now() < warm_until {
            step(client, seed, pattern, clock, &mut log, None, spans)?;
        }
        Ok(())
    };
    if let Err(e) = warm() {
        phases.gate.abandon();
        return Err(e);
    }
    phases.gate.wait()?;
    between();
    phases.gate.wait()?;
    spans.clear();
    let start = Instant::now();
    let deadline = start + phases.window;
    let in_window = |now: Instant| {
        now < deadline || clock.is_some_and(|c| !c.seller_done.load(Ordering::SeqCst))
    };
    while in_window(Instant::now()) {
        step(client, seed, pattern, clock, &mut log, Some(start), spans)?;
        if let Some(c) = clock {
            c.advance(BURST as u64);
        }
    }
    Ok(log)
}

/// One burst (or [`BURST`] depth-1 calls), recording latency when
/// `window` holds the window's start.
fn step(
    client: &mut Client,
    seed: u64,
    pattern: Pattern,
    clock: Option<&CurveClock>,
    log: &mut BuyerLog,
    window: Option<Instant>,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let burst = spans.open("client.burst", None);
    let lo = clock.map_or(0, |c| c.acked.load(Ordering::SeqCst));
    let mut answered = 0u32;
    match pattern {
        Pattern::Bursts => {
            for _ in 0..BURST {
                let request = inputs::request(seed, log.conn, log.sent);
                client.enqueue(&Request::Buy {
                    kind: KIND,
                    request,
                });
                log.sent += 1;
            }
            let t0 = Instant::now();
            let f = spans.open("client.flush", Some(&burst));
            client.flush().map_err(|e| format!("flush: {e}"))?;
            spans.close(f);
            for _ in 0..BURST {
                let r = spans.open("client.recv", Some(&burst));
                let (_, resp) = client.recv().map_err(|e| format!("recv: {e}"))?;
                spans.close(r);
                if let Some(start) = window {
                    log.samples.push(sample(start, t0));
                }
                record(log, &resp, false);
                answered += 1;
            }
        }
        Pattern::QuoteBuy | Pattern::Buys => {
            for _ in 0..BURST {
                let request = inputs::request(seed, log.conn, log.sent);
                let quote = pattern.is_quote(log.sent);
                let frame = if quote {
                    Request::Quote {
                        kind: KIND,
                        request,
                    }
                } else {
                    Request::Buy {
                        kind: KIND,
                        request,
                    }
                };
                client.enqueue(&frame);
                log.sent += 1;
                let t0 = Instant::now();
                let f = spans.open("client.flush", Some(&burst));
                client.flush().map_err(|e| format!("flush: {e}"))?;
                spans.close(f);
                let r = spans.open("client.recv", Some(&burst));
                let (_, resp) = client.recv().map_err(|e| format!("recv: {e}"))?;
                spans.close(r);
                if let Some(start) = window {
                    log.samples.push(sample(start, t0));
                    if quote {
                        log.window_quotes += 1;
                    }
                }
                record(log, &resp, quote);
                answered += 1;
            }
        }
    }
    spans.close(burst);
    let hi = clock.map_or(0, |c| c.sent.load(Ordering::SeqCst));
    log.curve_range.push((lo, hi));
    log.snapshots.push((log.sent, client.digest()));
    if window.is_some() {
        log.window_requests += u64::from(answered);
    }
    Ok(())
}

/// One latency sample, taken as the response arrives.
fn sample(window_start: Instant, sent: Instant) -> (f32, f32) {
    let now = Instant::now();
    (
        (now - window_start).as_secs_f32(),
        ((now - sent).as_secs_f64() * 1e6) as f32,
    )
}

fn record(log: &mut BuyerLog, resp: &Response, quote: bool) {
    match (resp, quote) {
        (Response::BuyOk { ncp, price, .. }, false) => log.sales.push((*ncp, *price)),
        (Response::QuoteOk { .. }, true) => log.sales.push((f64::NAN, f64::NAN)),
        (other, _) => {
            log.sales.push((f64::NAN, f64::NAN));
            unexpected(log, if quote { "quote" } else { "buy" }, other);
        }
    }
}

/// What the seller did.
#[derive(Default)]
pub struct SellerLog {
    /// Seller time per reprice, from the start of `solve_bv_dp` to
    /// `PublishOk`, in ms.
    pub reprice_ms: Vec<f64>,
    /// The curves it published, in order.
    pub published: Vec<PricingFunction>,
    /// Publishes not answered with `PublishOk`.
    pub errors: u64,
}

/// Reprices on `client` once per `season` buyer requests answered in the
/// window, until `window` has passed since the call. Each reprice
/// re-solves `solve_bv_dp` over the 512 buyer points of that season's
/// jittered valuations and publishes the curve over the wire.
pub fn seller(
    client: &mut Client,
    seed: u64,
    season: u64,
    window: Duration,
    clock: &CurveClock,
    spans: &mut SpanLog,
) -> Result<SellerLog, String> {
    let mut log = SellerLog::default();
    let deadline = Instant::now() + window;
    let jitter = EpochConfig::default().valuation_jitter;
    let mut k = 0u64;
    while clock.wait_bought((k + 1) * season.max(1), deadline) {
        let points = inputs::buyer_points(seed, k, jitter);
        let root = spans.open("seller.reprice", None);
        let t0 = Instant::now();
        let s = spans.open("core.revenue.solve_bv_dp", Some(&root));
        let curve = solve_bv_dp(&points).pricing;
        spans.close(s);
        let p = spans.open("client.publish", Some(&root));
        let frame = Request::Publish {
            kind: KIND,
            points: curve
                .grid()
                .iter()
                .copied()
                .zip(curve.prices().iter().copied())
                .collect(),
        };
        clock.sent.fetch_add(1, Ordering::SeqCst);
        let (_, resp) = client.call(&frame).map_err(|e| format!("publish: {e}"))?;
        clock.acked.fetch_add(1, Ordering::SeqCst);
        spans.close(p);
        log.reprice_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        spans.close(root);
        if resp != Response::PublishOk {
            log.errors += 1;
            eprintln!("marketbench: publish {k} answered {resp:?}");
        }
        log.published.push(curve);
        k += 1;
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buyer_failing_before_the_gate_releases_its_peers() {
        // A server that hangs up at once: the buyer's hello fails.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let phases = Phases {
            warmup: Duration::ZERO,
            window: Duration::from_millis(10),
            gate: Gate::new(2),
        };
        std::thread::scope(|s| {
            let peer = s.spawn(|| phases.gate.wait());
            let hang_up = s.spawn(|| drop(listener.accept()));
            let mut client = Client::connect(addr).expect("connect");
            let mut spans = SpanLog::new(Instant::now(), false, 0);
            let r = buyer(
                &mut client,
                1,
                0,
                Pattern::Buys,
                &phases,
                None,
                &mut spans,
                || {},
            );
            assert!(r.is_err());
            assert!(peer.join().expect("peer thread").is_err());
            hang_up.join().expect("listener thread");
        });
    }

    #[test]
    fn the_gate_lets_all_parties_through_each_round() {
        let gate = Gate::new(2);
        std::thread::scope(|s| {
            let other = s.spawn(|| gate.wait().and_then(|()| gate.wait()));
            assert!(gate.wait().and_then(|()| gate.wait()).is_ok());
            assert!(other.join().expect("other thread").is_ok());
        });
    }
}
