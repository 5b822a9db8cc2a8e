//! Per-layer attribution, measured from outside the program: the
//! benchmark's own spans around calls into each layer, `/metrics` deltas
//! across the timed window, and in-process timings of single layers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::concurrent::SharedBroker;
use mbp_core::market::{Broker, DurabilitySink, SaleArena, Transaction};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_linalg::Vector;
use mbp_ml::ModelKind;
use mbp_wal::{Durability, WalConfig};

use crate::daemon::{delta, Scrape};
use crate::drive::KIND;
use crate::inputs;

/// An open span; close it with [`SpanLog::close`].
pub struct Span {
    open: Option<(u32, &'static str, u32, Instant)>,
}

/// One closed span: times are nanoseconds since the run's origin and
/// `parent` is 0 for a root.
struct SpanRec {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A thread's spans, held in memory: totals per name for every span and
/// the first `cap` spans in full, written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    cap: usize,
    next_id: u32,
    spans: Vec<SpanRec>,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl SpanLog {
    /// A log; when `enabled` is false, opening and closing cost nothing.
    pub fn new(origin: Instant, enabled: bool, cap: usize) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            cap,
            next_id: 0,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<&Span>) -> Span {
        if !self.enabled {
            return Span { open: None };
        }
        self.next_id += 1;
        let parent = parent.and_then(|p| p.open).map_or(0, |(id, ..)| id);
        Span {
            open: Some((self.next_id, name, parent, Instant::now())),
        }
    }

    /// Closes `span`, adding it to the totals (and to the kept spans
    /// while fewer than `cap` are kept).
    pub fn close(&mut self, span: Span) {
        let Some((id, name, parent, start)) = span.open else {
            return;
        };
        let end = Instant::now();
        let total = self.totals.entry(name).or_insert((0.0, 0));
        total.0 += (end - start).as_secs_f64();
        total.1 += 1;
        if self.spans.len() < self.cap {
            let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
            self.spans.push(SpanRec {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Drops everything recorded so far (the warm-up's spans).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.totals.clear();
    }

    /// `(total seconds, count)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.totals.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Adds `other`'s totals into this log's.
    pub fn absorb_totals(&mut self, other: &SpanLog) {
        for (name, (secs, n)) in &other.totals {
            let t = self.totals.entry(name).or_insert((0.0, 0));
            t.0 += secs;
            t.1 += n;
        }
    }

    /// Appends the kept spans as JSON lines tagged with `thread`.
    pub fn write_jsonl(&self, thread: &str, out: &mut String) {
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Per-layer metrics in report order: name → (value, unit).
pub type Layers = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the window's client side measured, for attribution.
pub struct ClientSide<'a> {
    /// Mean per-request latency in the window, µs.
    pub mean_latency_us: f64,
    /// Quotes answered in the window.
    pub quotes: u64,
    /// Buyer spans of the window (all connections).
    pub buyer: &'a SpanLog,
    /// Seller spans.
    pub seller: &'a SpanLog,
}

/// The serve, core and ML layers from the `/metrics` scrapes around the
/// window, plus the client's spans.
pub fn from_scrapes(before: &Scrape, after: &Scrape, client: &ClientSide<'_>) -> Layers {
    let d = |name: &str| delta(before, after, name);
    let requests = d("mbp_serve_requests");
    let per_req = |name: &str| ratio(d(name) * 1e6, requests);
    let phases = ["read", "decode", "dispatch", "encode", "write"]
        .map(|p| per_req(&format!("mbp_serve_{p}_seconds_sum")));
    // Encode runs inside dispatch, so the daemon's span time per request
    // is read + decode + dispatch + write.
    let daemon = phases[0] + phases[1] + phases[2] + phases[4];
    let buys = d("mbp_core_buy_count");
    let per_buy = |name: &str| ratio(d(name) * 1e6, buys);
    let (flush_s, flushes) = client.buyer.total("client.flush");
    let (recv_s, recvs) = client.buyer.total("client.recv");
    let (solve_s, solves) = client.seller.total("core.revenue.solve_bv_dp");
    let (publish_s, publishes) = client.seller.total("client.publish");
    let at_setup = |name: &str| before.get(name).copied().unwrap_or(0.0);
    vec![
        ("serve.read_us_per_req", phases[0], "us"),
        ("serve.decode_us_per_req", phases[1], "us"),
        ("serve.dispatch_us_per_req", phases[2], "us"),
        ("serve.encode_us_per_req", phases[3], "us"),
        ("serve.write_us_per_req", phases[4], "us"),
        ("serve.daemon_spans_us_per_req", daemon, "us"),
        (
            "serve.unattributed_us_per_req",
            client.mean_latency_us - daemon,
            "us",
        ),
        (
            "serve.batch_size_mean",
            ratio(
                d("mbp_serve_batch_size_sum"),
                d("mbp_serve_batch_size_count"),
            ),
            "count",
        ),
        ("serve.backpressure", d("mbp_serve_backpressure"), "count"),
        (
            "serve.bytes_written_per_req",
            ratio(d("mbp_serve_bytes_written"), requests),
            "bytes",
        ),
        (
            "client.flush_us_per_burst",
            ratio(flush_s * 1e6, flushes as f64),
            "us",
        ),
        (
            "client.recv_wait_us_per_req",
            ratio(recv_s * 1e6, recvs as f64),
            "us",
        ),
        (
            "core.buy_batch_us_per_buy",
            per_buy("mbp_core_buy_batch_seconds_sum"),
            "us",
        ),
        (
            "core.buy_batch.resolve_us_per_buy",
            per_buy("mbp_core_buy_batch_resolve_seconds_sum"),
            "us",
        ),
        (
            "core.buy_batch.price_us_per_buy",
            per_buy("mbp_core_buy_batch_price_seconds_sum"),
            "us",
        ),
        (
            "core.price_batch_us_per_quote",
            ratio(
                d("mbp_core_price_batch_seconds_sum") * 1e6,
                client.quotes as f64,
            ),
            "us",
        ),
        (
            "core.table_build_us",
            ratio(
                d("mbp_core_pricing_table_build_seconds_sum") * 1e6,
                d("mbp_core_pricing_table_build_seconds_count"),
            ),
            "us",
        ),
        (
            "core.contention",
            d("mbp_core_sharedbroker_contention"),
            "count",
        ),
        (
            "core.revenue.solve_bv_dp_ms",
            ratio(solve_s * 1e3, solves as f64),
            "ms",
        ),
        (
            "core.publish_rtt_ms",
            ratio(publish_s * 1e3, publishes as f64),
            "ms",
        ),
        (
            "ml.support_s",
            at_setup("mbp_core_support_seconds_sum"),
            "s",
        ),
        (
            "ml.ridge_gram_s",
            at_setup("mbp_ml_ridge_gram_seconds_sum"),
            "s",
        ),
    ]
}

/// Mean nanoseconds per coordinate of `NoiseMechanism::perturb_into`
/// (Gaussian, at the model's width) over `ncps`.
pub fn perturb_ns_per_coord(h_star: &Vector, ncps: &[f64]) -> f64 {
    let mech = GaussianMechanism;
    let mut rng = mbp_randx::seeded_rng(0x9E27);
    let mut out = Vector::zeros(h_star.len());
    let t = Instant::now();
    for &ncp in ncps {
        mech.perturb_into(h_star, ncp, &mut rng, &mut out);
        std::hint::black_box(out.as_slice());
    }
    ratio(
        t.elapsed().as_nanos() as f64,
        (ncps.len() * h_star.len()) as f64,
    )
}

/// Forwards to [`Durability`] and times every sale it records.
///
/// Which calls carry an fsync follows [`WalConfig`]'s documented rule
/// (the group is handed to the OS every `group_commit` records and
/// fsynced once `fsync_interval` committed records have accumulated),
/// applied to the records this sink forwards.
struct TimingSink {
    inner: Arc<Durability>,
    cfg: WalConfig,
    stats: Mutex<SinkStats>,
}

#[derive(Default)]
struct SinkStats {
    sale_s: f64,
    sales: u64,
    buffered: usize,
    since_sync: usize,
    syncs: u64,
    sync_call_s: f64,
}

impl TimingSink {
    fn account(&self, records: usize, secs: f64, sales: u64) {
        // Every update below leaves the counters valid, so a poisoned
        // lock still holds usable statistics.
        let mut st = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let mut synced = false;
        for _ in 0..records {
            st.buffered += 1;
            if st.buffered >= self.cfg.group_commit.max(1) {
                st.since_sync += st.buffered;
                st.buffered = 0;
                if self.cfg.fsync_interval > 0 && st.since_sync >= self.cfg.fsync_interval {
                    st.since_sync = 0;
                    st.syncs += 1;
                    synced = true;
                }
            }
        }
        st.sale_s += secs;
        st.sales += sales;
        if synced {
            st.sync_call_s += secs;
        }
    }
}

impl DurabilitySink for TimingSink {
    // LINT-SCOPE(taint-det): the clock read only times the call; nothing it measures flows back into the market.
    fn record_sale(&self, tx: &Transaction) {
        let t = Instant::now();
        self.inner.record_sale(tx);
        self.account(1, t.elapsed().as_secs_f64(), 1);
    }

    // LINT-SCOPE(taint-det): the clock read only times the call; nothing it measures flows back into the market.
    fn record_sales(&self, txs: &[Transaction]) {
        let t = Instant::now();
        self.inner.record_sales(txs);
        self.account(txs.len(), t.elapsed().as_secs_f64(), txs.len() as u64);
    }

    fn record_support(&self, kind: ModelKind, ridge: f64) {
        self.inner.record_support(kind, ridge);
        self.account(1, 0.0, 0);
    }

    fn record_publish(&self, kind: ModelKind, grid: &[f64], prices: &[f64]) {
        self.inner.record_publish(kind, grid, prices);
        self.account(1, 0.0, 0);
    }

    fn record_epoch(&self, epoch: u64) {
        self.inner.record_epoch(epoch);
        self.account(1, 0.0, 0);
    }

    fn record_rng_cursor(&self, seed: u64, draws: u64) {
        self.inner.record_rng_cursor(seed, draws);
        self.account(1, 0.0, 0);
    }
}

/// Replays the first `buys` requests of connection 0's stream as buys,
/// in-process, through `SharedBroker::with_durability` + `buy_batch_into`
/// one buy per call (as a depth-1 buyer is dispatched), with a WAL in
/// `dir` at the default [`WalConfig`], and returns the WAL layer's
/// metrics. This times the WAL whether or not the workload's daemon runs
/// one.
pub fn wal_replay(broker: Broker, dir: &Path, seed: u64, buys: u64) -> Result<Layers, String> {
    let cfg = WalConfig::default();
    let (wal, _) = Durability::open(dir, cfg).map_err(|e| format!("opening replay wal: {e}"))?;
    let sink = Arc::new(TimingSink {
        inner: Arc::clone(&wal),
        cfg,
        stats: Mutex::new(SinkStats::default()),
    });
    let shared =
        SharedBroker::with_durability(broker, Arc::clone(&sink) as Arc<dyn DurabilitySink>);
    shared
        .support(KIND, 1e-6)
        .map_err(|e| format!("replay support: {e}"))?;
    shared
        .publish(KIND, inputs::initial_curve(), Box::new(SquareLossTransform))
        .map_err(|e| format!("replay publish: {e}"))?;
    let mut rng = mbp_randx::seeded_rng(inputs::hello_seed(seed, 0));
    let mut arena = SaleArena::new();
    for j in 0..buys {
        shared
            .buy_batch_into(KIND, &[inputs::request(seed, 0, j)], &mut rng, &mut arena)
            .map_err(|e| format!("replay buy: {e}"))?;
    }
    wal.sync().map_err(|e| format!("replay sync: {e}"))?;
    let st = sink.stats.lock().expect("sink stats lock poisoned");
    Ok(vec![
        (
            "wal.bytes_per_sale",
            ratio(wal_bytes(dir) as f64, st.sales as f64),
            "bytes",
        ),
        (
            "wal.record_sales_us_per_sale",
            ratio(st.sale_s * 1e6, st.sales as f64),
            "us",
        ),
        (
            "wal.sync_ms",
            ratio(st.sync_call_s * 1e3, st.syncs as f64),
            "ms",
        ),
        (
            "wal.syncs_per_1k_sales",
            ratio(st.syncs as f64 * 1e3, st.sales as f64),
            "count",
        ),
    ])
}

/// Bytes of every WAL segment in `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
