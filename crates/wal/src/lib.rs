//! # mbp-wal — durable write-ahead ledger for the marketplace broker
//!
//! The paper's broker is a pure function of its sale history: revenue,
//! arbitrage-freedom gates, and epoch rollovers all derive from it. This
//! crate makes that history durable — an append-only binary log of
//! supports, publishes, sales, epoch rollovers, and RNG cursors, the only
//! full record of each sale — and proves the converse: recovery replays
//! the log back to **bit-identical** broker state (weight bits, listing
//! knot bits, each kind's sale count and exact revenue bits; see
//! [`broker_fingerprint`]).
//!
//! Layout:
//!
//! * [`record`] — the framed, checksummed record format and the
//!   torn-tolerant byte-stream decoder (never panics, never errors on
//!   corrupt bytes: framed-but-corrupt records are *skipped* with a
//!   counted warning, framing damage *truncates* the tail);
//! * [`log`] — segment files, the group-commit/fsync write path with
//!   first-class crash hooks, and directory recovery;
//! * [`durability`] — state folding ([`RecoveredState`]), broker replay,
//!   and the live [`Durability`] handle that plugs
//!   into `Broker`/`SharedBroker` as a
//!   [`DurabilitySink`](mbp_core::market::DurabilitySink).
//!
//! Everything here is exercised by the `mbp-testkit` crash-point
//! injector: kill-at-record, kill-at-byte, and bit-flip schedules over
//! seeded histories, with recovery required to converge from every
//! surviving prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod log;
pub mod record;

pub use durability::{broker_fingerprint, Durability, RecoveredState, Recovery};
pub use log::{recover_dir, DirRecovery, WalConfig, WalWriter};
pub use record::{encode_log, live_start, recover_bytes, EncodedLog, RecoveredLog, WalEvent};

use std::fmt;

/// Errors raised by the durability layer. Corrupt *bytes* never raise
/// these — only real I/O failures, a killed writer, or recovered content
/// the market itself rejects.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The writer was crashed by a fault-injection hook; the segment must
    /// not change again.
    Dead,
    /// Replaying recovered state into the broker failed.
    Market(mbp_core::market::MarketError),
    /// Recovered publish knots were rejected by the pricing layer.
    BadPoints(String),
    /// A checksum-valid sale record carries a NaN, infinite or negative
    /// `ncp` or `price`.
    BadSale {
        /// The record's index in the recovered stream, counting from 0
        /// across all segments in id order.
        record: usize,
        /// The recorded NCP.
        ncp: f64,
        /// The recorded price.
        price: f64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Dead => write!(f, "wal writer is dead (crash point reached)"),
            WalError::Market(e) => write!(f, "replaying recovered state failed: {e}"),
            WalError::BadPoints(msg) => write!(f, "recovered pricing rejected: {msg}"),
            WalError::BadSale { record, ncp, price } => write!(
                f,
                "recovered sale record {record} is invalid: ncp {ncp}, price {price} \
                 (both must be finite and non-negative)"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<mbp_core::market::MarketError> for WalError {
    fn from(e: mbp_core::market::MarketError) -> Self {
        WalError::Market(e)
    }
}
