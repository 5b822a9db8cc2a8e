//! The durability seam between the in-memory market and a write-ahead log.
//!
//! The broker itself stays storage-agnostic: `mbp-core` defines only the
//! [`DurabilitySink`] observer trait, and the `mbp-wal` crate implements it
//! on top of an append-only segment log. The seam is deliberately narrow —
//! the sink sees exactly the events a recovery needs to rebuild broker
//! state bit-identically:
//!
//! * **supports** — `(kind, ridge)` pairs; training is deterministic, so
//!   replaying a support re-derives the same optimal weights to the bit;
//! * **publishes** — the pricing knots `(grid, prices)`; re-compiling the
//!   listing from the same points rebuilds the same table;
//! * **sales** — every [`Transaction`], the only full record of a sale:
//!   the broker itself keeps per-kind totals (see
//!   [`crate::market::totals`]);
//! * **epoch rollovers** and the **RNG cursor** — session markers that let
//!   a restarted process continue its seed stream instead of reusing it.
//!
//! Sale hooks fire where a sale *originates*: the settle step of the
//! `buy*` family (under the handle's owner lock in the shared broker),
//! which also adds the sale to the totals. Merging totals —
//! `SharedBroker::with_broker` draining its owners, WAL recovery through
//! [`Broker::merge_totals`] — records nothing, because those sales are
//! already durable.
//!
//! [`Broker::merge_totals`]: crate::market::Broker::merge_totals

use crate::market::agents::Transaction;
use mbp_ml::ModelKind;
use parking_lot::Mutex;

/// Observer for market events that must survive a crash.
///
/// Implementations must be cheap and non-blocking in the common case
/// (buffered appends): sale hooks run while the caller holds its
/// `SharedBroker` handle's owner lock. A sink must never call back into
/// the broker — the lock hierarchy is `core write` / `owner` → `sink`,
/// acquired strictly in that order and never reversed.
pub trait DurabilitySink: Send + Sync {
    /// One completed sale. Fired once per transaction at its origination
    /// site, just before it is added to the broker's totals.
    fn record_sale(&self, tx: &Transaction);

    /// A batch of completed sales, in settlement order. Default loops over
    /// [`DurabilitySink::record_sale`]; implementations may override to
    /// amortize their own locking.
    fn record_sales(&self, txs: &[Transaction]) {
        for tx in txs {
            self.record_sale(tx);
        }
    }

    /// A model kind was (re)trained onto the menu at `ridge`.
    fn record_support(&self, kind: ModelKind, ridge: f64);

    /// A listing was published: the pricing knots `(grid[i], prices[i])`.
    /// The durable form keeps the points, not the compiled table — the
    /// table is a pure function of the points.
    fn record_publish(&self, kind: ModelKind, grid: &[f64], prices: &[f64]);

    /// An epoch rollover (adaptive-pricing sessions).
    fn record_epoch(&self, epoch: u64);

    /// The RNG session cursor: `seed` is the session's base seed, `draws`
    /// an implementation-defined position marker (e.g. the number of
    /// seeds handed out by a `SeedStream`).
    fn record_rng_cursor(&self, seed: u64, draws: u64);
}

/// A recording sink: every sale it is given, in order (it ignores the
/// other events). The in-memory sale history for tests and reports that
/// need one; read it with `lock()`.
pub type SaleLog = Mutex<Vec<Transaction>>;

impl DurabilitySink for SaleLog {
    fn record_sale(&self, tx: &Transaction) {
        self.lock().push(tx.clone());
    }
    fn record_support(&self, _: ModelKind, _: f64) {}
    fn record_publish(&self, _: ModelKind, _: &[f64], _: &[f64]) {}
    fn record_epoch(&self, _: u64) {}
    fn record_rng_cursor(&self, _: u64, _: u64) {}
}
