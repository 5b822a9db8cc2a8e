//! The always-on flight recorder: a fixed-size, lock-free ring of
//! completed span records plus tail-latency exemplars.
//!
//! Every span completed while tracing (see [`crate::span`]) is written
//! into a seqlock-style ring of all-atomic slots: a writer claims a slot
//! with one `fetch_add` on the head counter, bumps the slot's sequence tag
//! to odd, stores the record fields, and bumps the tag back to even.
//! Readers snapshot a slot only when the tag is even and unchanged across
//! the field reads, so a torn slot is skipped rather than misreported.
//! Recording is therefore wait-free for writers and never blocks the serve
//! path; the price is that a reader may miss the handful of slots being
//! rewritten at snapshot time, which is the right trade for a debugging
//! instrument.
//!
//! **Exemplars**: when a root span's duration crosses the configured slow
//! threshold ([`set_slow_threshold_micros`]), its record and every ring
//! span of the same trace (its child tree) are copied into a small bounded
//! exemplar store together with the request seed, so the exact request can
//! be replayed later. The store keeps the slowest [`MAX_EXEMPLARS`] roots.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of slots in the flight-recorder ring.
pub const RING_SLOTS: usize = 4096;

/// Maximum retained tail-latency exemplars; once full, a new exemplar
/// evicts the fastest retained root if it is slower.
pub const MAX_EXEMPLARS: usize = 32;

/// One ring slot. `seq` is the seqlock tag (even = stable, odd = being
/// written); `idx` is the 1-based global claim index (0 = never written),
/// which gives snapshots a total completion order.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    idx: AtomicU64,
    /// `trace << 32 | span`.
    ids: AtomicU64,
    /// `parent_span << 32 | interned_name`.
    parent_name: AtomicU64,
    /// `interned_listing << 32 | interned_mechanism`.
    labels: AtomicU64,
    seed: AtomicU64,
    start_nanos: AtomicU64,
    dur_nanos: AtomicU64,
}

static HEAD: AtomicU64 = AtomicU64::new(0);

fn ring() -> &'static [Slot] {
    static RING: OnceLock<Vec<Slot>> = OnceLock::new();
    RING.get_or_init(|| (0..RING_SLOTS).map(|_| Slot::default()).collect())
}

/// A raw completed-span record as produced by the span guard (ids still
/// interned).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawSpan {
    pub trace: u32,
    pub span: u32,
    pub parent: u32,
    pub name: u32,
    pub listing: u32,
    pub mechanism: u32,
    pub seed: u64,
    pub start_nanos: u64,
    pub dur_nanos: u64,
}

/// Writes one completed span into the ring (wait-free).
pub(crate) fn record(r: &RawSpan) {
    let slots = ring();
    let i = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &slots[(i as usize) % RING_SLOTS];
    slot.seq.fetch_add(1, Ordering::AcqRel); // odd: writing
    slot.idx.store(i + 1, Ordering::Relaxed);
    slot.ids
        .store((r.trace as u64) << 32 | r.span as u64, Ordering::Relaxed);
    slot.parent_name
        .store((r.parent as u64) << 32 | r.name as u64, Ordering::Relaxed);
    slot.labels.store(
        (r.listing as u64) << 32 | r.mechanism as u64,
        Ordering::Relaxed,
    );
    slot.seed.store(r.seed, Ordering::Relaxed);
    slot.start_nanos.store(r.start_nanos, Ordering::Relaxed);
    slot.dur_nanos.store(r.dur_nanos, Ordering::Relaxed);
    slot.seq.fetch_add(1, Ordering::Release); // even: stable
}

/// A completed span read out of the ring, with interned ids resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Completion order across the whole ring (1-based, monotone).
    pub idx: u64,
    /// Trace (request) id this span belongs to.
    pub trace: u32,
    /// This span's id, unique within the process since the last reset.
    pub span: u32,
    /// Parent span id (0 for roots).
    pub parent: u32,
    /// Span name.
    pub name: String,
    /// Listing label ("-" when not applicable).
    pub listing: String,
    /// Mechanism label ("-" when not applicable).
    pub mechanism: String,
    /// Request seed (roots only; 0 otherwise).
    pub seed: u64,
    /// Start offset from the process trace anchor, in nanoseconds.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
}

fn read_slot(slot: &Slot) -> Option<SpanData> {
    let s1 = slot.seq.load(Ordering::Acquire);
    if !s1.is_multiple_of(2) {
        return None; // mid-write
    }
    let idx = slot.idx.load(Ordering::Relaxed);
    if idx == 0 {
        return None; // never written
    }
    let ids = slot.ids.load(Ordering::Relaxed);
    let parent_name = slot.parent_name.load(Ordering::Relaxed);
    let labels = slot.labels.load(Ordering::Relaxed);
    let seed = slot.seed.load(Ordering::Relaxed);
    let start_nanos = slot.start_nanos.load(Ordering::Relaxed);
    let dur_nanos = slot.dur_nanos.load(Ordering::Relaxed);
    let s2 = slot.seq.load(Ordering::Acquire);
    if s1 != s2 {
        return None; // torn: overwritten while reading
    }
    Some(SpanData {
        idx,
        trace: (ids >> 32) as u32,
        span: ids as u32,
        parent: (parent_name >> 32) as u32,
        name: crate::trace::intern_name((parent_name & 0xffff_ffff) as u32),
        listing: crate::trace::intern_name((labels >> 32) as u32),
        mechanism: crate::trace::intern_name(labels as u32),
        seed,
        start_nanos,
        dur_nanos,
    })
}

/// Point-in-time copy of every readable ring slot, in completion order.
pub fn recorder_snapshot() -> Vec<SpanData> {
    let mut out: Vec<SpanData> = ring().iter().filter_map(read_slot).collect();
    out.sort_by_key(|s| s.idx);
    out
}

/// Number of spans ever recorded (including those already overwritten).
pub fn recorded_spans() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

// --- slow-span exemplars ----------------------------------------------

/// A retained tail-latency exemplar: the slow root span, its child tree as
/// captured from the ring at completion time, and the threshold in force.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The slow root span (carries the request seed).
    pub root: SpanData,
    /// Every ring span of the same trace, in completion order.
    pub children: Vec<SpanData>,
    /// The slow threshold (nanoseconds) that this root crossed.
    pub threshold_nanos: u64,
}

static SLOW_NANOS: AtomicU64 = AtomicU64::new(u64::MAX);

fn exemplar_store() -> &'static Mutex<Vec<Exemplar>> {
    static STORE: OnceLock<Mutex<Vec<Exemplar>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Sets the slow-span threshold in microseconds. Root spans at or above it
/// are captured as exemplars; `u64::MAX / 1000` or more disables capture.
pub fn set_slow_threshold_micros(us: u64) {
    SLOW_NANOS.store(us.saturating_mul(1000), Ordering::SeqCst);
}

/// The current slow-span threshold in nanoseconds.
pub fn slow_threshold_nanos() -> u64 {
    SLOW_NANOS.load(Ordering::Relaxed)
}

/// Captures an exemplar for a just-completed slow root: copies its child
/// tree out of the ring while it is still warm.
pub(crate) fn capture_exemplar(root_raw: &RawSpan) {
    let spans = recorder_snapshot();
    let children: Vec<SpanData> = spans
        .into_iter()
        .filter(|s| s.trace == root_raw.trace && s.span != root_raw.span)
        .collect();
    let root = SpanData {
        idx: 0,
        trace: root_raw.trace,
        span: root_raw.span,
        parent: root_raw.parent,
        name: crate::trace::intern_name(root_raw.name),
        listing: crate::trace::intern_name(root_raw.listing),
        mechanism: crate::trace::intern_name(root_raw.mechanism),
        seed: root_raw.seed,
        start_nanos: root_raw.start_nanos,
        dur_nanos: root_raw.dur_nanos,
    };
    let ex = Exemplar {
        root,
        children,
        threshold_nanos: slow_threshold_nanos(),
    };
    let mut store = exemplar_store().lock();
    if store.len() < MAX_EXEMPLARS {
        store.push(ex);
        return;
    }
    // Full: evict the fastest retained root if the newcomer is slower.
    if let Some((i, fastest)) = store
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.root.dur_nanos)
    {
        if fastest.root.dur_nanos < ex.root.dur_nanos {
            if let Some(slot) = store.get_mut(i) {
                *slot = ex;
            }
        }
    }
}

/// Point-in-time copy of the retained exemplars.
pub fn exemplars() -> Vec<Exemplar> {
    exemplar_store().lock().clone()
}

/// Installs a panic hook that dumps the tail of the flight recorder to
/// stderr (as JSON lines) before delegating to the previous hook, so a
/// crashing process leaves its last requests behind. Idempotent; only
/// active while tracing is enabled.
pub(crate) fn install_panic_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if crate::is_tracing() {
                let spans = recorder_snapshot();
                let skip = spans.len().saturating_sub(64);
                let tail: Vec<SpanData> = spans.into_iter().skip(skip).collect();
                let dump = crate::export::recorder_to_jsonl(&tail);
                use std::io::Write;
                let _ = writeln!(
                    std::io::stderr(),
                    "mbp-obs flight recorder at panic ({} spans recorded, last {} shown):\n{}",
                    recorded_spans(),
                    tail.len(),
                    dump
                );
            }
            prev(info);
        }));
    });
}

/// Clears the ring, the head counter, and the exemplar store. Callers must
/// quiesce tracing first (as with the metric registry, resetting while
/// writers are active yields a mixed-generation ring, not unsoundness).
pub(crate) fn reset() {
    for slot in ring() {
        slot.seq.store(0, Ordering::SeqCst);
        slot.idx.store(0, Ordering::SeqCst);
    }
    HEAD.store(0, Ordering::SeqCst);
    exemplar_store().lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(trace: u32, span: u32, parent: u32, dur: u64) -> RawSpan {
        RawSpan {
            trace,
            span,
            parent,
            name: 0,
            listing: 0,
            mechanism: 0,
            seed: 7,
            start_nanos: 10,
            dur_nanos: dur,
        }
    }

    #[test]
    fn ring_roundtrips_records_in_order() {
        let _g = crate::test_support::serial();
        reset();
        for k in 0..10u32 {
            record(&raw(1, k + 1, 0, k as u64));
        }
        let spans = recorder_snapshot();
        assert_eq!(spans.len(), 10);
        assert!(spans.windows(2).all(|w| w[0].idx < w[1].idx));
        assert_eq!(spans[0].span, 1);
        assert_eq!(spans[9].span, 10);
        assert_eq!(spans[0].seed, 7);
        reset();
        assert!(recorder_snapshot().is_empty());
    }

    #[test]
    fn ring_keeps_only_the_newest_slots() {
        let _g = crate::test_support::serial();
        reset();
        let n = RING_SLOTS as u32 + 100;
        for k in 0..n {
            record(&raw(1, k + 1, 0, 0));
        }
        let spans = recorder_snapshot();
        assert_eq!(spans.len(), RING_SLOTS);
        // The oldest 100 records were overwritten.
        assert!(spans.iter().all(|s| s.span > 100));
        assert_eq!(recorded_spans(), n as u64);
        reset();
    }

    #[test]
    fn exemplar_store_keeps_the_slowest_roots() {
        let _g = crate::test_support::serial();
        reset();
        set_slow_threshold_micros(0);
        for k in 0..(MAX_EXEMPLARS as u32 + 8) {
            capture_exemplar(&raw(100 + k, 1, 0, k as u64 * 1000));
        }
        let exs = exemplars();
        assert_eq!(exs.len(), MAX_EXEMPLARS);
        // The 8 fastest (dur 0..7000) were evicted.
        assert!(exs.iter().all(|e| e.root.dur_nanos >= 8_000));
        set_slow_threshold_micros(u64::MAX / 1000);
        reset();
    }
}
