//! Per-connection state machine: read → decode → batch → dispatch →
//! encode → write, one cycle per scheduler turn.
//!
//! Each connection owns its buffers, its noise RNG (seeded by the client's
//! `Hello` frame), a [`SaleArena`] and a quote vector, so a cycle
//! allocates nothing in steady state. Batch admission happens in the
//! dispatch phase: a run of consecutive buy (or quote) requests for the
//! same listing is dispatched as *one* [`SharedBroker::buy_batch_into`] /
//! [`SharedBroker::price_batch_into`] call, turning
//! network fan-in into the PR 7 batch kernel's cache-resident shape.
//! Because the kernel's RNG consumption depends only on request order —
//! never on how the stream was chunked into batches — the responses a
//! client sees are bit-identical no matter how its frames happened to
//! coalesce, which is what makes the loadgen digest check meaningful.
//!
//! Admission control: at most `queue_limit` decoded requests may be
//! pending; when the limit is hit with more complete frames buffered, the
//! connection emits one unsolicited [`Response::Backpressure`] frame per
//! episode and stops decoding (TCP flow control then pushes back on the
//! sender). This module is in the `mbp-lint` panic-freedom and
//! determinism scopes: no indexing/unwraps on the request path and no
//! wall-clock reads (idle timeouts are the server loop's job).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{MarketError, PriceQuote, PurchaseRequest, SaleArena, MAX_BATCH};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, MbpRng};

use crate::wake::RawFd;
use crate::wire::{
    decode_header, decode_request, encode_buy_ok, encode_error, encode_quote_ok, encode_response,
    market_error_code, ErrorCode, Request, Response, HEADER_LEN,
};

/// Tuning knobs shared by every connection of one server.
#[derive(Debug, Clone)]
pub(crate) struct ConnConfig {
    /// Max decoded-but-undispatched requests before backpressure.
    pub queue_limit: usize,
    /// Max buffered unparsed bytes before the read phase yields.
    pub read_buf_limit: usize,
    /// `true` disables batch admission: every request dispatches (and
    /// flushes) individually — the naive-server baseline loadgen measures
    /// the batch speedup against.
    pub per_request: bool,
}

/// Outcome of one scheduler turn over a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CycleResult {
    /// Bytes moved or requests dispatched this turn, and there may be
    /// more to do without waiting on the socket.
    Progress,
    /// Progress, after which the socket read drained and nothing is left
    /// to serve: no decoded request waits for dispatch and no complete
    /// frame sits in the read buffer. The next turn can wait for the
    /// socket (level-triggered, so nothing is missed) instead of running
    /// an empty pass.
    Waiting,
    /// Nothing to do until the socket is ready again.
    Idle,
    /// The connection is gone; drop it.
    Closed,
}

/// A decoded frame awaiting dispatch, or a decode rejection that must be
/// answered *in request order* with the responses around it.
enum Pending {
    Req(Request),
    Fail(ErrorCode, String),
}

/// Bytes one `read(2)` may take from the socket.
const READ_CHUNK: usize = 16 * 1024;

pub(crate) struct Conn {
    stream: TcpStream,
    /// The landing area of every `read(2)`, zeroed once when the
    /// connection opens, not on every read pass.
    chunk: Box<[u8]>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<(u32, Pending)>,
    /// Noise RNG, seeded by the client's `Hello`; buys before the
    /// handshake are rejected with [`ErrorCode::NotReady`].
    rng: Option<MbpRng>,
    /// Scratch for both verbs' batch kernels.
    arena: SaleArena,
    quotes: Vec<Result<PriceQuote, MarketError>>,
    batch_ids: Vec<u32>,
    batch_reqs: Vec<PurchaseRequest>,
    /// Flush what is buffered, then close (fatal frame, EOF, or drain).
    closing: bool,
    closed: bool,
    backpressured: bool,
}

impl Conn {
    /// Wraps an accepted (already non-blocking) stream.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            rng: None,
            arena: SaleArena::new(),
            quotes: Vec::new(),
            batch_ids: Vec::new(),
            batch_reqs: Vec::new(),
            closing: false,
            closed: false,
            backpressured: false,
        }
    }

    /// Runs one full read→decode→dispatch→write cycle. `draining` is the
    /// server-wide drain flag: when set (or when a client sends the
    /// shutdown control frame, which sets it), the connection stops
    /// reading, serves what it already buffered, flushes, and closes.
    pub(crate) fn cycle(
        &mut self,
        broker: &SharedBroker,
        cfg: &ConnConfig,
        draining: &AtomicBool,
    ) -> CycleResult {
        if self.closed {
            return CycleResult::Closed;
        }
        let mut progress = false;
        let mut read_drained = false;
        let drain_mode = draining.load(Ordering::Relaxed);
        if !self.closing && !drain_mode {
            let (read, drained) = self.fill_read_buf(cfg);
            progress |= read;
            read_drained = drained;
        }
        progress |= self.decode_frames(cfg);
        progress |= self.dispatch(broker, cfg, draining);
        progress |= self.flush_writes();
        let flushed = self.write_pos >= self.write_buf.len();
        let idle_drain = drain_mode && self.pending.is_empty() && !self.has_complete_frame();
        if flushed && (self.closing || idle_drain) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            self.closed = true;
            return CycleResult::Closed;
        }
        if !progress {
            CycleResult::Idle
        } else if read_drained
            && !self.closing
            && !self.closed
            && self.pending.is_empty()
            && !self.has_complete_frame()
            && !draining.load(Ordering::Relaxed)
        {
            CycleResult::Waiting
        } else {
            CycleResult::Progress
        }
    }

    /// The socket's descriptor, for the server's readiness wait.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }

    #[cfg(not(unix))]
    pub(crate) fn raw_fd(&self) -> RawFd {}

    /// `true` while encoded responses still wait for the socket to take
    /// them (the server then waits for writability too).
    pub(crate) fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// `true` when at least one complete frame sits unparsed in the
    /// read buffer (used to decide whether a drain can finish, and
    /// whether the connection can wait on its socket).
    fn has_complete_frame(&self) -> bool {
        match decode_header(&self.read_buf) {
            Ok(Some(h)) => self.read_buf.len() >= HEADER_LEN + h.payload_len as usize,
            Ok(None) => false,
            // A poisoned header still needs a dispatch turn to answer.
            Err(_) => true,
        }
    }

    /// Read phase: drain the socket into `read_buf` until it would block,
    /// a read comes back short, the buffer hits its cap, or the peer
    /// closes. Returns `(progress, drained)`: `drained` means the socket
    /// held nothing more when the phase stopped. A short read counts as
    /// drained without a second `read(2)` to confirm it; an EOF (or more
    /// data) behind it leaves the socket readable, and the next readiness
    /// wait sees that.
    fn fill_read_buf(&mut self, cfg: &ConnConfig) -> (bool, bool) {
        let _span = mbp_obs::span("mbp.serve.read");
        let mut progress = false;
        let mut drained = false;
        while self.read_buf.len() < cfg.read_buf_limit {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    // Orderly EOF: serve what was buffered, then close.
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    let Some(got) = self.chunk.get(..n) else {
                        break;
                    };
                    self.read_buf.extend_from_slice(got);
                    mbp_obs::counter_add("mbp.serve.bytes.read", n as u64);
                    progress = true;
                    if n < self.chunk.len() {
                        drained = true;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    drained = true;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        (progress, drained)
    }

    /// Decode phase: parse complete frames into the pending queue, up to
    /// the admission limit; signal backpressure once per full episode.
    fn decode_frames(&mut self, cfg: &ConnConfig) -> bool {
        let _span = mbp_obs::span("mbp.serve.decode");
        let mut consumed = 0usize;
        let mut progress = false;
        loop {
            if self.pending.len() >= cfg.queue_limit {
                let more = match self.read_buf.get(consumed..) {
                    Some(rest) => !rest.is_empty(),
                    None => false,
                };
                if more && !self.backpressured {
                    encode_response(&mut self.write_buf, 0, &Response::Backpressure);
                    self.backpressured = true;
                    mbp_obs::inc("mbp.serve.backpressure");
                    progress = true;
                }
                break;
            }
            let Some(rest) = self.read_buf.get(consumed..) else {
                break;
            };
            let header = match decode_header(rest) {
                Ok(Some(h)) => h,
                Ok(None) => break,
                Err(e) => {
                    // Corrupt framing: answer once, then close.
                    mbp_obs::inc("mbp.serve.frames.bad");
                    encode_error(&mut self.write_buf, 0, ErrorCode::Protocol, &e.message());
                    self.closing = true;
                    consumed = self.read_buf.len();
                    progress = true;
                    break;
                }
            };
            let total = HEADER_LEN + header.payload_len as usize;
            let Some(frame) = rest.get(..total) else {
                break; // payload not fully buffered yet
            };
            let payload = frame.get(HEADER_LEN..).unwrap_or(&[]);
            consumed += total;
            progress = true;
            mbp_obs::inc("mbp.serve.requests");
            match decode_request(&header, payload) {
                Ok(req) => {
                    self.pending
                        .push_back((header.request_id, Pending::Req(req)));
                }
                Err(e) if e.is_fatal() => {
                    mbp_obs::inc("mbp.serve.frames.bad");
                    self.pending.push_back((
                        header.request_id,
                        Pending::Fail(ErrorCode::Protocol, e.message()),
                    ));
                    self.closing = true;
                    consumed = self.read_buf.len();
                    break;
                }
                Err(e) => {
                    // Well-framed garbage: reject this request, keep going.
                    mbp_obs::inc("mbp.serve.frames.bad");
                    self.pending.push_back((
                        header.request_id,
                        Pending::Fail(ErrorCode::Protocol, e.message()),
                    ));
                }
            }
        }
        if consumed > 0 {
            self.read_buf.drain(..consumed.min(self.read_buf.len()));
        }
        if self.pending.is_empty() {
            self.backpressured = false;
        }
        progress
    }

    /// Dispatch phase: pop pending requests in order, coalescing runs of
    /// same-kind buys/quotes into single batch-kernel calls.
    fn dispatch(&mut self, broker: &SharedBroker, cfg: &ConnConfig, draining: &AtomicBool) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let _span = mbp_obs::span("mbp.serve.dispatch");
        let dispatched = self.pending.len() as u64;
        while let Some((id, item)) = self.pending.pop_front() {
            match item {
                Pending::Fail(code, msg) => {
                    let _enc = mbp_obs::span("mbp.serve.encode");
                    encode_error(&mut self.write_buf, id, code, &msg);
                }
                Pending::Req(Request::Hello { seed }) => {
                    self.rng = Some(seeded_rng(seed));
                    let _enc = mbp_obs::span("mbp.serve.encode");
                    encode_response(&mut self.write_buf, id, &Response::HelloOk);
                }
                Pending::Req(Request::Ping) => {
                    let _enc = mbp_obs::span("mbp.serve.encode");
                    encode_response(&mut self.write_buf, id, &Response::Pong);
                }
                Pending::Req(Request::Shutdown) => {
                    draining.store(true, Ordering::Relaxed);
                    mbp_obs::inc("mbp.serve.shutdown_frames");
                    let _enc = mbp_obs::span("mbp.serve.encode");
                    encode_response(&mut self.write_buf, id, &Response::ShutdownAck);
                }
                Pending::Req(Request::Publish { kind, points }) => {
                    self.dispatch_publish(broker, id, kind, &points);
                }
                Pending::Req(Request::Quote { kind, request }) => {
                    self.gather_run(cfg, id, request, kind, false);
                    self.dispatch_quotes(broker, kind);
                }
                Pending::Req(Request::Buy { kind, request }) => {
                    self.gather_run(cfg, id, request, kind, true);
                    self.dispatch_buys(broker, kind);
                }
            }
        }
        mbp_obs::counter_add("mbp.serve.dispatched", dispatched);
        self.backpressured = false;
        true
    }

    /// Batch admission: seed the batch buffers with the popped request,
    /// then keep popping while the queue front is the same verb for the
    /// same listing (bounded by the kernel's `MAX_BATCH` cap). With
    /// `per_request` set the run is always length 1.
    fn gather_run(
        &mut self,
        cfg: &ConnConfig,
        id: u32,
        first: PurchaseRequest,
        kind: ModelKind,
        buys: bool,
    ) {
        self.batch_ids.clear();
        self.batch_reqs.clear();
        self.batch_ids.push(id);
        self.batch_reqs.push(first);
        if cfg.per_request {
            return;
        }
        while self.batch_reqs.len() < MAX_BATCH {
            let same = match self.pending.front() {
                Some((_, Pending::Req(Request::Buy { kind: k, .. }))) => buys && *k == kind,
                Some((_, Pending::Req(Request::Quote { kind: k, .. }))) => !buys && *k == kind,
                _ => false,
            };
            if !same {
                break;
            }
            let Some((next_id, item)) = self.pending.pop_front() else {
                break;
            };
            if let Pending::Req(Request::Buy { request, .. } | Request::Quote { request, .. }) =
                item
            {
                self.batch_ids.push(next_id);
                self.batch_reqs.push(request);
            }
        }
        mbp_obs::observe("mbp.serve.batch_size", self.batch_reqs.len() as f64);
    }

    fn dispatch_buys(&mut self, broker: &SharedBroker, kind: ModelKind) {
        let Some(rng) = self.rng.as_mut() else {
            let _enc = mbp_obs::span("mbp.serve.encode");
            for &id in &self.batch_ids {
                encode_error(
                    &mut self.write_buf,
                    id,
                    ErrorCode::NotReady,
                    "buy before Hello: the connection RNG is unseeded",
                );
            }
            return;
        };
        match broker.buy_batch_into(kind, &self.batch_reqs, rng, &mut self.arena) {
            Ok(()) => {
                let _enc = mbp_obs::span("mbp.serve.encode");
                for (&id, result) in self.batch_ids.iter().zip(self.arena.results()) {
                    match result {
                        Ok(sale) => encode_buy_ok(
                            &mut self.write_buf,
                            id,
                            sale.ncp,
                            sale.price,
                            sale.expected_error,
                            sale.model.weights().as_slice(),
                        ),
                        Err(e) => encode_error(
                            &mut self.write_buf,
                            id,
                            market_error_code(e),
                            &e.to_string(),
                        ),
                    }
                }
            }
            Err(e) => {
                let _enc = mbp_obs::span("mbp.serve.encode");
                let (code, msg) = (market_error_code(&e), e.to_string());
                for &id in &self.batch_ids {
                    encode_error(&mut self.write_buf, id, code, &msg);
                }
            }
        }
    }

    fn dispatch_quotes(&mut self, broker: &SharedBroker, kind: ModelKind) {
        match broker.price_batch_into(kind, &self.batch_reqs, &mut self.arena, &mut self.quotes) {
            Ok(()) => {
                let _enc = mbp_obs::span("mbp.serve.encode");
                for (&id, result) in self.batch_ids.iter().zip(&self.quotes) {
                    match result {
                        Ok(q) => encode_quote_ok(
                            &mut self.write_buf,
                            id,
                            q.ncp,
                            q.price,
                            q.expected_error,
                        ),
                        Err(e) => encode_error(
                            &mut self.write_buf,
                            id,
                            market_error_code(e),
                            &e.to_string(),
                        ),
                    }
                }
            }
            Err(e) => {
                let _enc = mbp_obs::span("mbp.serve.encode");
                let (code, msg) = (market_error_code(&e), e.to_string());
                for &id in &self.batch_ids {
                    encode_error(&mut self.write_buf, id, code, &msg);
                }
            }
        }
    }

    fn dispatch_publish(
        &mut self,
        broker: &SharedBroker,
        id: u32,
        kind: ModelKind,
        points: &[(f64, f64)],
    ) {
        let knots: Vec<f64> = points.iter().map(|p| p.0).collect();
        let prices: Vec<f64> = points.iter().map(|p| p.1).collect();
        let outcome = match PricingFunction::from_points(knots, prices) {
            Ok(pricing) => broker
                .publish(kind, pricing, Box::new(SquareLossTransform))
                .map_err(|e| (market_error_code(&e), e.to_string())),
            Err(e) => Err((ErrorCode::BadRequest, e.to_string())),
        };
        let _enc = mbp_obs::span("mbp.serve.encode");
        match outcome {
            Ok(()) => encode_response(&mut self.write_buf, id, &Response::PublishOk),
            Err((code, msg)) => encode_error(&mut self.write_buf, id, code, &msg),
        }
    }

    /// Write phase: push buffered responses until the socket would block.
    fn flush_writes(&mut self) -> bool {
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            return false;
        }
        let _span = mbp_obs::span("mbp.serve.write");
        let mut progress = false;
        while self.write_pos < self.write_buf.len() {
            let Some(tail) = self.write_buf.get(self.write_pos..) else {
                break;
            };
            match self.stream.write(tail) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.write_pos += n;
                    mbp_obs::counter_add("mbp.serve.bytes.written", n as u64);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        progress
    }
}
