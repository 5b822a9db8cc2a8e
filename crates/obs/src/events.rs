//! Bounded structured event log: a ring buffer of timestamped key=value
//! events, filtered by a global verbosity level.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Maximum buffered events; older events are evicted first.
pub const RING_CAPACITY: usize = 4096;

/// Event severity, doubling as the global filter threshold: an event is
/// kept when its level is at most [`verbosity()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing is recorded.
    Off = 0,
    /// Failures only.
    Error = 1,
    /// High-level progress (the default).
    Info = 2,
    /// Per-step diagnostics (the most verbose level).
    Debug = 3,
}

impl Verbosity {
    /// Lower-case name, as emitted in JSON lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Verbosity::Off => "off",
            Verbosity::Error => "error",
            Verbosity::Info => "info",
            Verbosity::Debug => "debug",
        }
    }

    fn from_u8(b: u8) -> Verbosity {
        match b {
            0 => Verbosity::Off,
            1 => Verbosity::Error,
            2 => Verbosity::Info,
            _ => Verbosity::Debug,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Verbosity::Info as u8);

/// Sets the global event filter threshold.
pub fn set_verbosity(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// Current global event filter threshold.
pub fn verbosity() -> Verbosity {
    Verbosity::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// One structured log event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (gaps reveal ring evictions).
    pub seq: u64,
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub unix_micros: u64,
    /// Severity this event was recorded at.
    pub level: Verbosity,
    /// Dotted subsystem name, e.g. `mbp.core.adaptive`.
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Structured key=value payload.
    pub fields: Vec<(String, String)>,
}

struct Ring {
    events: VecDeque<Event>,
    seq: u64,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::with_capacity(RING_CAPACITY),
            seq: 0,
            dropped: 0,
        })
    })
}

pub(crate) fn record(level: Verbosity, target: &str, message: &str, fields: &[(&str, String)]) {
    if !crate::is_enabled() || level == Verbosity::Off || level > verbosity() {
        return;
    }
    let unix_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut r = ring().lock();
    let seq = r.seq;
    r.seq += 1;
    if r.events.len() == RING_CAPACITY {
        r.events.pop_front();
        r.dropped += 1;
    }
    r.events.push_back(Event {
        seq,
        unix_micros,
        level,
        target: target.to_string(),
        message: message.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Removes and returns all buffered events, oldest first.
pub fn drain_events() -> Vec<Event> {
    ring().lock().events.drain(..).collect()
}

/// Number of events evicted from the ring since the last [`crate::reset`].
pub fn dropped_events() -> u64 {
    ring().lock().dropped
}

pub(crate) fn reset() {
    let mut r = ring().lock();
    r.events.clear();
    r.seq = 0;
    r.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn ring_evicts_oldest_first() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        set_verbosity(Verbosity::Info);
        let extra = 10;
        for i in 0..RING_CAPACITY + extra {
            record(Verbosity::Info, "mbp.test", "e", &[("i", i.to_string())]);
        }
        assert_eq!(dropped_events(), extra as u64);
        let drained = drain_events();
        assert_eq!(drained.len(), RING_CAPACITY);
        // The survivors are the newest RING_CAPACITY events, in order.
        assert_eq!(drained[0].seq, extra as u64);
        assert_eq!(drained[0].fields[0].1, extra.to_string());
        assert_eq!(
            drained.last().unwrap().seq,
            (RING_CAPACITY + extra - 1) as u64
        );
        for pair in drained.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
        }
        crate::disable();
        crate::reset();
    }

    #[test]
    fn verbosity_filters_levels() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        set_verbosity(Verbosity::Info);
        record(Verbosity::Error, "t", "kept", &[]);
        record(Verbosity::Info, "t", "kept", &[]);
        record(Verbosity::Debug, "t", "dropped", &[]);
        assert_eq!(drain_events().len(), 2);

        set_verbosity(Verbosity::Off);
        record(Verbosity::Error, "t", "dropped", &[]);
        assert!(drain_events().is_empty());

        set_verbosity(Verbosity::Debug);
        record(Verbosity::Debug, "t", "kept", &[]);
        assert_eq!(drain_events().len(), 1);

        set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Verbosity::Off < Verbosity::Error);
        assert!(Verbosity::Error < Verbosity::Info);
        assert!(Verbosity::Info < Verbosity::Debug);
        assert_eq!(Verbosity::from_u8(3), Verbosity::Debug);
        assert_eq!(Verbosity::Debug.as_str(), "debug");
    }
}
