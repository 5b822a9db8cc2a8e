//! State reconstruction and the live [`Durability`] sink.
//!
//! Broker state is a pure function of the event history: the menu depends
//! only on the *last* support per kind (training is deterministic), each
//! listing only on the *last* publish per kind (the compiled table is a
//! pure function of the knots), and the sale totals on the multiset of
//! sales — a count and an exact revenue sum per kind, so the order the
//! sales were logged in cannot change a bit. [`RecoveredState`] folds a
//! recovered event stream down to exactly that. The fold starts at
//! [`live_start`]: a [`WalEvent::Snapshot`] marker found on disk
//! supersedes everything before it, and the records after it re-state
//! everything still live.
//!
//! Recovery equality is checked bit-for-bit via [`broker_fingerprint`]:
//! model weights, listing knots and prices (all as IEEE-754 bits), and
//! each kind's sale count and revenue bits. Internal caches (the ridge
//! factorization cache) are excluded — they are performance state, not
//! market state.

use crate::log::{list_segments, recover_dir, segment_path, WalConfig, WalWriter};
use crate::record::{live_start, WalEvent};
use crate::WalError;
use mbp_core::arbitrage::check;
use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, DurabilitySink, MarketError, SalesTotals, Transaction};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_serve::wire::{digest_bytes, kind_to_u8, DIGEST_SEED};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Every model kind, in the fixed order used for fingerprints and
/// digests.
pub const ALL_KINDS: [ModelKind; 3] = [
    ModelKind::LinearRegression,
    ModelKind::LogisticRegression,
    ModelKind::LinearSvm,
];

/// The folded form of an event history: enough to rebuild a broker
/// bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Last ridge per supported kind, in first-support order.
    supports: Vec<(ModelKind, f64)>,
    /// Last published curve per kind, in first-publish order.
    publishes: Vec<(ModelKind, PricingFunction)>,
    /// Per-kind sale counts and exact revenue.
    pub sales: SalesTotals,
    /// Current epoch (0 before any rollover).
    pub epoch: u64,
    /// Last RNG session cursor, if any.
    pub rng_cursor: Option<(u64, u64)>,
}

impl RecoveredState {
    /// Folds the live history of an event stream: the records from
    /// [`live_start`] on, after the last [`WalEvent::Snapshot`] marker.
    ///
    /// # Errors
    /// Records that passed their checksum, so were written that way, but
    /// that no broker could have written:
    /// [`WalError::BadSale`] when a live sale carries a NaN, infinite or
    /// negative `ncp` or `price`; [`WalError::BadPoints`] when a live
    /// publish's knots do not form a pricing function; and
    /// [`WalError::Market`] with [`MarketError::NotArbitrageFree`] when
    /// they do but fail [`check`].
    pub fn from_events(events: &[WalEvent]) -> Result<RecoveredState, WalError> {
        let mut state = RecoveredState::default();
        for (record, event) in events.iter().enumerate().skip(live_start(events)) {
            state.apply_event(record, event)?;
        }
        Ok(state)
    }

    /// Folds record number `record` (its index in the recovered stream).
    fn apply_event(&mut self, record: usize, event: &WalEvent) -> Result<(), WalError> {
        match event {
            WalEvent::Support { kind, ridge } => {
                match self.supports.iter_mut().find(|(k, _)| k == kind) {
                    Some(slot) => slot.1 = *ridge,
                    None => self.supports.push((*kind, *ridge)),
                }
            }
            WalEvent::Publish { kind, grid, prices } => {
                let pricing =
                    PricingFunction::from_points(grid.clone(), prices.clone()).map_err(|e| {
                        WalError::BadPoints(format!("recovered publish for {kind:?}: {e}"))
                    })?;
                check(&pricing).map_err(MarketError::NotArbitrageFree)?;
                match self.publishes.iter_mut().find(|(k, _)| k == kind) {
                    Some(slot) => slot.1 = pricing,
                    None => self.publishes.push((*kind, pricing)),
                }
            }
            WalEvent::Sale { kind, ncp, price } => {
                let valid = |x: f64| x.is_finite() && x >= 0.0;
                if !(valid(*ncp) && valid(*price)) {
                    return Err(WalError::BadSale {
                        record,
                        ncp: *ncp,
                        price: *price,
                    });
                }
                self.sales.add_sale(*kind, *price);
            }
            WalEvent::Epoch { epoch } => self.epoch = *epoch,
            WalEvent::RngCursor { seed, draws } => self.rng_cursor = Some((*seed, *draws)),
            // The live history starts after the last marker.
            WalEvent::Snapshot { .. } => {}
        }
        Ok(())
    }

    /// `true` when no event has been folded in.
    pub fn is_empty(&self) -> bool {
        self == &RecoveredState::default()
    }

    /// The last recorded ridge for `kind`, if supported.
    pub fn support_ridge(&self, kind: ModelKind) -> Option<f64> {
        self.supports
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| *r)
    }

    /// The last published knots for `kind`, if listed.
    pub fn published_points(&self, kind: ModelKind) -> Option<(&[f64], &[f64])> {
        self.publishes
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, f)| (f.grid(), f.prices()))
    }

    /// Canonical digest of the folded state (FNV over every field's
    /// bits), for determinism checks and replay reports.
    pub fn digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        for (kind, ridge) in &self.supports {
            h = digest_bytes(h, &[1, kind_to_u8(*kind)]);
            h = digest_f64s(h, &[*ridge]);
        }
        for (kind, pricing) in &self.publishes {
            h = digest_bytes(h, &[2, kind_to_u8(*kind)]);
            h = digest_f64s(h, pricing.grid());
            h = digest_f64s(h, pricing.prices());
        }
        h = digest_totals(h, &self.sales);
        h = digest_bytes(h, &self.epoch.to_le_bytes());
        if let Some((seed, draws)) = self.rng_cursor {
            h = digest_bytes(h, &seed.to_le_bytes());
            h = digest_bytes(h, &draws.to_le_bytes());
        }
        h
    }

    /// Replays the fold into `broker`: supports retrain (deterministic),
    /// the folded curves publish (durable listings use the square-loss
    /// transform — the serve path's transform), and the
    /// sale totals merge into the broker's. Attach any durability sink
    /// only *after* this call, or the replay is re-recorded.
    pub fn apply(&self, broker: &mut Broker) -> Result<(), WalError> {
        for (kind, ridge) in &self.supports {
            broker.support(*kind, *ridge)?;
        }
        for (kind, pricing) in &self.publishes {
            broker.publish(*kind, pricing.clone(), Box::new(SquareLossTransform))?;
        }
        broker.merge_totals(&self.sales);
        Ok(())
    }
}

/// Folds `xs`' IEEE-754 bits into digest `h`.
fn digest_f64s(h: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(h, |h, x| digest_bytes(h, &x.to_bits().to_le_bytes()))
}

/// Folds each kind's sale count and revenue bits into digest `h`.
fn digest_totals(mut h: u64, totals: &SalesTotals) -> u64 {
    for kind in ALL_KINDS {
        let (count, revenue) = totals.of_kind(kind);
        h = digest_bytes(h, &[3, kind_to_u8(kind)]);
        h = digest_bytes(h, &count.to_le_bytes());
        h = digest_f64s(h, &[revenue]);
    }
    h
}

/// Bit-level fingerprint of the market state a recovery must reproduce:
/// per kind (fixed order), the optimal model's weight bits and the
/// listing's knot/price bits; then each kind's sale count and revenue
/// bits. Two brokers with equal fingerprints price and account
/// identically.
pub fn broker_fingerprint(broker: &Broker) -> u64 {
    let mut h = DIGEST_SEED;
    for kind in ALL_KINDS {
        if let Some(model) = broker.optimal_model(kind) {
            h = digest_bytes(h, &[1, kind_to_u8(kind)]);
            h = digest_f64s(h, model.weights().as_slice());
        }
        if let Some(pricing) = broker.listed_pricing(kind) {
            h = digest_bytes(h, &[2, kind_to_u8(kind)]);
            h = digest_f64s(h, pricing.grid());
            h = digest_f64s(h, pricing.prices());
        }
    }
    digest_totals(h, broker.totals())
}

/// What [`Durability::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The folded pre-crash state (replay with [`RecoveredState::apply`]).
    pub state: RecoveredState,
    /// Corrupt-but-framed records skipped across all segments.
    pub records_skipped: usize,
    /// Segments with a torn or frame-damaged tail.
    pub truncated_segments: usize,
    /// Segment files scanned.
    pub segments: usize,
    /// Intact records replayed.
    pub records: usize,
}

struct DurState {
    writer: WalWriter,
    dir: PathBuf,
    segment: u64,
}

/// The live write-ahead handle: implements [`DurabilitySink`] by
/// appending every event to the current segment (group-commit buffered).
/// The log is the only full record of the sales; the broker keeps
/// totals.
///
/// Sink hooks cannot surface errors to the market hot path; I/O failures
/// and post-kill appends are counted in [`Durability::io_error_count`]
/// instead, and tests assert it stays zero (or exactly matches the
/// injected faults).
pub struct Durability {
    state: Mutex<DurState>,
    io_errors: AtomicU64,
    sales_logged: AtomicU64,
}

impl Durability {
    /// Recovers `dir` (creating it if missing) and opens a fresh segment
    /// for this process's appends. Returns the handle and what was
    /// recovered; replay `recovery.state` into a broker *before*
    /// attaching the handle as its sink.
    ///
    /// # Errors
    /// I/O failures, and the errors of [`RecoveredState::from_events`]
    /// for a recovered record that carries an impossible sale or curve;
    /// no segment is opened then.
    pub fn open(dir: &Path, cfg: WalConfig) -> Result<(Arc<Durability>, Recovery), WalError> {
        std::fs::create_dir_all(dir)?;
        let scanned = recover_dir(dir)?;
        let recovery = Recovery {
            state: RecoveredState::from_events(&scanned.events)?,
            records_skipped: scanned.records_skipped,
            truncated_segments: scanned.truncated_segments,
            segments: scanned.segments,
            records: scanned.events.len(),
        };
        let next = list_segments(dir)?.last().map_or(1, |(id, _)| id + 1);
        let writer = WalWriter::create(&segment_path(dir, next), cfg)?;
        let handle = Durability {
            state: Mutex::new(DurState {
                writer,
                dir: dir.to_path_buf(),
                segment: next,
            }),
            io_errors: AtomicU64::new(0),
            sales_logged: AtomicU64::new(0),
        };
        Ok((Arc::new(handle), recovery))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DurState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event, counting a failure instead of raising it: the
    /// market hot path must not stall on a dead or failing log.
    pub fn append(&self, event: WalEvent) {
        if self.lock().writer.append(&event).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Explicit durability point: commit + fsync.
    pub fn sync(&self) -> Result<(), WalError> {
        self.lock().writer.sync()
    }

    /// Fault injection (see [`WalWriter::kill_now`]): crash the writer
    /// now, losing the buffered group.
    pub fn kill_now(&self) {
        self.lock().writer.kill_now();
    }

    /// Fault injection (see [`WalWriter::kill_at_byte`]): crash once the
    /// current segment file would exceed `total_bytes`.
    pub fn kill_at_byte(&self, total_bytes: u64) {
        self.lock().writer.kill_at_byte(total_bytes);
    }

    /// Append failures counted so far (0 on a healthy log).
    pub fn io_error_count(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Sales recorded through the sink interface.
    pub fn sales_logged(&self) -> u64 {
        self.sales_logged.load(Ordering::Relaxed)
    }

    /// The current segment id.
    pub fn segment(&self) -> u64 {
        self.lock().segment
    }

    /// The WAL directory.
    pub fn dir(&self) -> PathBuf {
        self.lock().dir.clone()
    }
}

impl DurabilitySink for Durability {
    fn record_sale(&self, tx: &Transaction) {
        self.sales_logged.fetch_add(1, Ordering::Relaxed);
        self.append(WalEvent::Sale {
            kind: tx.kind,
            ncp: tx.ncp,
            price: tx.price,
        });
    }

    fn record_support(&self, kind: ModelKind, ridge: f64) {
        self.append(WalEvent::Support { kind, ridge });
    }

    fn record_publish(&self, kind: ModelKind, grid: &[f64], prices: &[f64]) {
        self.append(WalEvent::Publish {
            kind,
            grid: grid.to_vec(),
            prices: prices.to_vec(),
        });
    }

    fn record_epoch(&self, epoch: u64) {
        self.append(WalEvent::Epoch { epoch });
    }

    fn record_rng_cursor(&self, seed: u64, draws: u64) {
        self.append(WalEvent::RngCursor { seed, draws });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_log;
    use mbp_core::market::{concurrent::SharedBroker, PurchaseRequest};
    use mbp_data::synth;
    use mbp_randx::{seeded_rng, MbpRng};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbp-wal-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_broker(seed: u64) -> Broker {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(120, 3, 0.5, &mut rng).split(0.75, &mut rng);
        Broker::new(data)
    }

    fn pricing() -> PricingFunction {
        let grid: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
        PricingFunction::from_points(grid, prices).unwrap()
    }

    fn sale(ncp: f64, price: f64) -> WalEvent {
        WalEvent::Sale {
            kind: ModelKind::LinearRegression,
            ncp,
            price,
        }
    }

    /// How a live session sends its 20 buys.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// One 20-request `buy_batch` call.
        OneBatch,
        /// 20 one-request calls: the daemon's depth-1 shape.
        OneRequestCalls,
        /// Two buyer threads making 10 one-request calls each.
        TwoBuyerThreads,
    }

    fn buy(sb: &SharedBroker, requests: &[PurchaseRequest], rng: &mut MbpRng) {
        for r in sb
            .buy_batch(ModelKind::LinearRegression, requests, rng)
            .unwrap()
        {
            r.unwrap();
        }
    }

    /// A publish the arbitrage check refuses reaches neither the listing
    /// nor the log: the log holds the support alone.
    #[test]
    fn a_rejected_publish_appends_no_record() {
        let kind = ModelKind::LinearRegression;
        let dir = temp_dir("rejected-publish");
        let (wal, _) = Durability::open(&dir, WalConfig::default()).unwrap();
        let mut broker = fresh_broker(11);
        broker.set_durability(Arc::clone(&wal) as Arc<_>);
        broker.support(kind, 1e-6).unwrap();
        let knotted = PricingFunction::from_points(vec![2.0, 3.0], vec![2.0, 3.5]).unwrap();
        let refused = broker.publish(kind, knotted, Box::new(SquareLossTransform));
        assert!(
            matches!(refused, Err(MarketError::NotArbitrageFree(_))),
            "{refused:?}"
        );
        wal.sync().unwrap();
        drop(broker);
        drop(wal);
        let (_wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovery.records, 1);
        assert!(recovery.state.published_points(kind).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full live session against a durability-attached SharedBroker
    /// recovers to a bit-identical broker in a fresh process image,
    /// whatever order the sales settled in.
    #[test]
    fn recovery_is_bit_identical_to_the_live_broker() {
        for shape in [
            Shape::OneBatch,
            Shape::OneRequestCalls,
            Shape::TwoBuyerThreads,
        ] {
            let dir = temp_dir(&format!("bitident-{shape:?}"));
            let (wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
            assert!(recovery.state.is_empty());
            let sb = SharedBroker::with_durability(fresh_broker(11), Arc::clone(&wal) as Arc<_>);
            sb.support(ModelKind::LinearRegression, 1e-6).unwrap();
            sb.publish(
                ModelKind::LinearRegression,
                pricing(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
            let requests: Vec<PurchaseRequest> = (1..=20)
                .map(|i| PurchaseRequest::AtNcp(i as f64 * 0.1))
                .collect();
            match shape {
                Shape::OneBatch => buy(&sb, &requests, &mut seeded_rng(12)),
                Shape::OneRequestCalls => {
                    let mut rng = seeded_rng(12);
                    for r in requests.chunks(1) {
                        buy(&sb, r, &mut rng);
                    }
                }
                Shape::TwoBuyerThreads => std::thread::scope(|s| {
                    for (seed, half) in (12..).zip(requests.chunks(10)) {
                        let sb = &sb;
                        s.spawn(move || {
                            let mut rng = seeded_rng(seed);
                            for r in half.chunks(1) {
                                buy(sb, r, &mut rng);
                            }
                        });
                    }
                }),
            }
            wal.record_epoch(2);
            wal.record_rng_cursor(12, 20);
            wal.sync().unwrap();
            let live_print = sb.with_broker(|b| broker_fingerprint(b));
            assert_eq!(wal.sales_logged(), 20, "{shape:?}");
            assert_eq!(wal.io_error_count(), 0, "{shape:?}");
            drop(sb);
            drop(wal);

            // "Restart": recover the directory into a fresh broker over the
            // same dataset.
            let (_wal2, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(recovery.state.sales.count(), 20, "{shape:?}");
            assert_eq!(recovery.state.epoch, 2);
            assert_eq!(recovery.state.rng_cursor, Some((12, 20)));
            assert_eq!(recovery.records_skipped, 0);
            let mut restored = fresh_broker(11);
            recovery.state.apply(&mut restored).unwrap();
            assert_eq!(broker_fingerprint(&restored), live_print, "{shape:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A segment led by a Snapshot marker supersedes every earlier
    /// segment: the fold restarts at the marker.
    #[test]
    fn a_snapshot_marker_on_disk_supersedes_earlier_segments() {
        let dir = temp_dir("snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let kind = ModelKind::LinearRegression;
        let before = encode_log(&[
            WalEvent::Support { kind, ridge: 1e-6 },
            sale(9.0, 999.0),
            WalEvent::Epoch { epoch: 4 },
        ]);
        let snapshot = encode_log(&[
            WalEvent::Snapshot {
                compacted_records: 2,
            },
            WalEvent::Support { kind, ridge: 1e-3 },
            sale(0.5, 10.0),
        ]);
        std::fs::write(segment_path(&dir, 1), &before.bytes).unwrap();
        std::fs::write(segment_path(&dir, 2), &snapshot.bytes).unwrap();
        let (_wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
        let state = recovery.state;
        assert_eq!(recovery.records, 6);
        assert_eq!(state.support_ridge(kind), Some(1e-3));
        assert_eq!(state.sales.count(), 1);
        assert_eq!(state.sales.revenue(), 10.0);
        assert_eq!(state.epoch, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksum-valid sale whose NCP or price no broker could have sold
    /// fails recovery with a typed error naming the record.
    #[test]
    fn a_sale_with_an_impossible_value_fails_recovery() {
        for (i, (ncp, price)) in [
            (f64::NAN, 1.0),
            (0.5, f64::NAN),
            (0.5, f64::INFINITY),
            (f64::NEG_INFINITY, 1.0),
            (0.5, -1.0),
            (-0.5, 1.0),
        ]
        .into_iter()
        .enumerate()
        {
            let dir = temp_dir(&format!("badsale{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            let log = encode_log(&[sale(0.5, 1.0), sale(ncp, price)]);
            std::fs::write(segment_path(&dir, 1), &log.bytes).unwrap();
            match Durability::open(&dir, WalConfig::default()) {
                Err(WalError::BadSale { record: 1, .. }) => {}
                Err(e) => panic!("({ncp}, {price}): unexpected error {e}"),
                Ok(_) => panic!("({ncp}, {price}): recovery accepted the record"),
            }
            // No segment was opened for appends.
            assert_eq!(list_segments(&dir).unwrap().len(), 1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Empty and header-only WALs recover to a clean empty broker (the
    /// regression pinned for `mbp-market replay` / `serve --wal`).
    #[test]
    fn empty_and_header_only_wals_recover_to_a_clean_empty_broker() {
        for tag in ["empty-dir", "header-only"] {
            let dir = temp_dir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            if tag == "header-only" {
                std::fs::write(segment_path(&dir, 1), crate::record::FILE_HEADER).unwrap();
            }
            let scanned = recover_dir(&dir).unwrap();
            let state = RecoveredState::from_events(&scanned.events).unwrap();
            assert!(state.is_empty(), "{tag} must fold to the empty state");
            let mut broker = fresh_broker(31);
            let clean_print = broker_fingerprint(&broker);
            state.apply(&mut broker).unwrap();
            assert_eq!(broker_fingerprint(&broker), clean_print);
            assert_eq!(broker.sales_count(), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The per-sale and batched sink paths log the same stream.
    #[test]
    fn batched_and_single_sale_hooks_agree() {
        let txs: Vec<Transaction> = (0..5)
            .map(|i| Transaction {
                kind: ModelKind::LinearRegression,
                ncp: 0.1 * (i + 1) as f64,
                price: i as f64,
            })
            .collect();
        let (d1, dir1) = {
            let dir = temp_dir("hooks1");
            let (d, _) = Durability::open(&dir, WalConfig::default()).unwrap();
            d.record_sales(&txs);
            d.sync().unwrap();
            (recover_dir(&dir).unwrap().events, dir)
        };
        let (d2, dir2) = {
            let dir = temp_dir("hooks2");
            let (d, _) = Durability::open(&dir, WalConfig::default()).unwrap();
            for tx in &txs {
                d.record_sale(tx);
            }
            d.sync().unwrap();
            (recover_dir(&dir).unwrap().events, dir)
        };
        assert_eq!(d1.len(), txs.len());
        assert_eq!(d1, d2);
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}
